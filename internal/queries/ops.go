package queries

import (
	"fmt"

	"wpinq/internal/engine"
	"wpinq/internal/incremental"
	"wpinq/internal/weighted"
)

// Operator dispatch. Every incremental pipeline in this package is
// written once, over the six operators below. Each picks its executor
// when the node is constructed, from the dynamic type of its input: a
// stream produced by the sharded executor (every one implements
// engine.Source) gets an engine node, anything else a node of the serial
// reference engine. The value returned is the executor's own node, not a
// wrapper, so propagation runs the same code it ran when each builder
// named an operator package directly. This is the only file of the
// package that imports the engine (TestOnlyOpsImportsEngine).

// sameExecutor asserts both operands of a binary operator to the sharded
// executor's stream type. One operand per executor is a construction
// bug: the serial node would receive engine batches mid-round, outside
// the engine's transaction and ordering protocol.
func sameExecutor[A, B comparable](a incremental.Source[A], b incremental.Source[B]) (engine.Source[A], engine.Source[B], bool) {
	ea, aok := a.(engine.Source[A])
	eb, bok := b.(engine.Source[B])
	if aok != bok {
		panic(fmt.Sprintf("queries: binary operator over two executors: %T and %T", a, b))
	}
	return ea, eb, aok
}

func sel[T, U comparable](src incremental.Source[T], f func(T) U) incremental.Source[U] {
	if es, ok := src.(engine.Source[T]); ok {
		return engine.Select(es, f)
	}
	return incremental.Select(src, f)
}

func where[T comparable](src incremental.Source[T], p func(T) bool) incremental.Source[T] {
	if es, ok := src.(engine.Source[T]); ok {
		return engine.Where(es, p)
	}
	return incremental.Where(src, p)
}

func shaveConst[T comparable](src incremental.Source[T], w float64) incremental.Source[weighted.Indexed[T]] {
	if es, ok := src.(engine.Source[T]); ok {
		return engine.ShaveConst(es, w)
	}
	return incremental.ShaveConst(src, w)
}

func groupBy[T, K, R comparable](src incremental.Source[T], key func(T) K, reduce func([]T) R) incremental.Source[weighted.Grouped[K, R]] {
	if es, ok := src.(engine.Source[T]); ok {
		return engine.GroupBy(es, key, reduce)
	}
	return incremental.GroupBy(src, key, reduce)
}

func join[A, B, K, R comparable](a incremental.Source[A], b incremental.Source[B], ka func(A) K, kb func(B) K, reduce func(A, B) R) incremental.Source[R] {
	if ea, eb, ok := sameExecutor(a, b); ok {
		return engine.Join(ea, eb, ka, kb, reduce)
	}
	return incremental.Join(a, b, ka, kb, reduce)
}

func intersect[T comparable](a, b incremental.Source[T]) incremental.Source[T] {
	if ea, eb, ok := sameExecutor(a, b); ok {
		return engine.Intersect(ea, eb)
	}
	return incremental.Intersect(a, b)
}
