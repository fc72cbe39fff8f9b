package workload

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// The process-wide registry. Built-in workloads register from this
// package's init (builtin.go); experiments or extensions may register
// more before any measurement or fit is built.
var (
	regMu    sync.RWMutex
	registry = make(map[string]Workload)
)

// Register adds a workload to the registry. Names must be non-empty,
// consist of lowercase letters, digits, and dashes, and be unused.
func Register(w Workload) error {
	if err := checkName(w.Name); err != nil {
		return err
	}
	if w.impl == nil {
		return fmt.Errorf("workload: Register(%q): built without Define", w.Name)
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, ok := registry[w.Name]; ok {
		return fmt.Errorf("workload: %q already registered", w.Name)
	}
	registry[w.Name] = w
	return nil
}

// MustRegister is Register, panicking on error (init-time use).
func MustRegister(w Workload) {
	if err := Register(w); err != nil {
		panic(err)
	}
}

// Get resolves a workload by name.
func Get(name string) (Workload, error) {
	regMu.RLock()
	defer regMu.RUnlock()
	w, ok := registry[name]
	if !ok {
		return Workload{}, fmt.Errorf("workload: unknown workload %q (registered: %s)",
			name, strings.Join(namesLocked(), ", "))
	}
	return w, nil
}

// Names returns every registered workload name, sorted.
func Names() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	return namesLocked()
}

func namesLocked() []string {
	out := make([]string, 0, len(registry))
	for name := range registry {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// All returns every registered workload, sorted by name.
func All() []Workload {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]Workload, 0, len(registry))
	for _, name := range namesLocked() {
		out = append(out, registry[name])
	}
	return out
}

// Resolve maps names to workloads, rejecting unknown names and
// duplicates. It is the one validation path shared by synth.Config, the
// service API, and the CLIs.
func Resolve(names []string) ([]Workload, error) {
	out := make([]Workload, 0, len(names))
	seen := make(map[string]bool, len(names))
	for _, name := range names {
		if seen[name] {
			return nil, fmt.Errorf("workload: %q listed twice", name)
		}
		seen[name] = true
		w, err := Get(name)
		if err != nil {
			return nil, err
		}
		out = append(out, w)
	}
	return out, nil
}

// ParseList splits a comma-separated workload list ("tbi,wedges"),
// trims whitespace, drops empty items, and validates every name against
// the registry.
func ParseList(s string) ([]string, error) {
	var names []string
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		names = append(names, part)
	}
	if _, err := Resolve(names); err != nil {
		return nil, err
	}
	return names, nil
}

func checkName(name string) error {
	if name == "" {
		return fmt.Errorf("workload: name must be non-empty")
	}
	for _, r := range name {
		if (r < 'a' || r > 'z') && (r < '0' || r > '9') && r != '-' {
			return fmt.Errorf("workload: name %q: want lowercase letters, digits, and dashes", name)
		}
	}
	return nil
}
