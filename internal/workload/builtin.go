package workload

import "wpinq/internal/queries"

// The built-in workloads: the paper's fit measurements (TbI Section 5.3,
// TbD Section 3.3, JDD Section 3.2) plus two analyses the pre-registry
// architecture could not fit at all — the wedge count (clustering
// denominator) and a motif-by-degree profile (Section 3.5's
// generalization, instantiated on the 3-star).
//
// Each workload is defined exactly once, here. Everything downstream —
// privacy cost accounting, measurement, the canonical serialization
// format, the fit executor, the curator service API, and the CLI
// flags — picks it up by name.
func init() {
	MustRegister(Define(Workload{
		Name:        "tbi",
		Description: "triangles by intersect: single-record triangle signal (paper Section 5.3)",
	}, Builders[queries.Unit]{Expr: func(int) queries.Expr[queries.Unit] { return queries.TbI() }}))

	MustRegister(Define(Workload{
		Name:        "tbd",
		Description: "triangles by degree: weight per sorted degree triple (paper Section 3.3)",
		Bucketed:    true,
	}, Builders[queries.DegTriple]{Expr: queries.TbD}))

	MustRegister(Define(Workload{
		Name:        "jdd",
		Description: "joint degree distribution: weight per directed-edge degree pair (paper Section 3.2)",
	}, Builders[queries.DegPair]{Expr: func(int) queries.Expr[queries.DegPair] { return queries.JDD() }}))

	MustRegister(Define(Workload{
		Name:        "wedges",
		Description: "length-two-path count: clustering-coefficient denominator (paper Section 2.7)",
	}, Builders[queries.Unit]{Expr: func(int) queries.Expr[queries.Unit] { return queries.WedgeCount() }}))

	// star4-by-degree instantiates the generic motif-by-degree plan on
	// the 3-star: the weighted prevalence of hubs-with-three-leaves,
	// broken down by the (bucketed) degrees of the four vertices. It runs
	// the same compiled join plan as every other pattern, so registering
	// another motif workload is a Define call away.
	MustRegister(Define(Workload{
		Name:        "star4-by-degree",
		Description: "3-star motif prevalence by sorted degree profile (paper Section 3.5)",
		Bucketed:    true,
	}, Builders[queries.DegProfile]{Expr: func(bucket int) queries.Expr[queries.DegProfile] {
		return mustPlan(queries.MotifByDegree(queries.StarPattern4, bucket))
	}}))
}

// mustPlan unwraps the motif compiler's error return: the built-in
// patterns are static and validated, so compilation cannot fail.
func mustPlan[S any](s S, err error) S {
	if err != nil {
		panic(err)
	}
	return s
}
