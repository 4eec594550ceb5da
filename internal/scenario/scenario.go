// Package scenario unifies how trial execution is configured and run across
// the repository. It has two halves:
//
//   - a registry of named Scenarios — every algorithm, baseline and advice
//     model of the paper becomes an enumerable, parameterisable entry, so the
//     CLIs, the experiments and the facade all resolve "known-k" or "levy"
//     through one table instead of hand-rolled switch statements;
//   - a sweep engine (see sweep.go) that expands (scenario × k × D) grids
//     into Cells and executes their Monte-Carlo trials through the streaming
//     sim.MonteCarlo aggregation, sharded across workers with a
//     deterministic merge.
//
// Adding a new search strategy to every tool is a one-line Register call.
package scenario

import (
	"fmt"
	"sort"
	"sync"

	"antsearch/internal/agent"
	"antsearch/internal/fault"
)

// Params carries the tunable knobs a scenario constructor may consume. Each
// scenario reads only the fields it needs and validates them itself, so an
// invalid value for the selected scenario surfaces as an error (Params{} is
// NOT generally valid — use DefaultParams for a working baseline). Its JSON
// form is the "params" object of antserve's /sweep request.
//
//antlint:wire
type Params struct {
	// Epsilon is the hedging exponent of the uniform algorithm (Theorem 3.3,
	// must be > 0) and the advice quality of approx-hedge (Theorem 4.2, in
	// [0, 1] — zero is meaningful there: exact knowledge).
	Epsilon float64 `json:"epsilon"`
	// Delta is the tail parameter of the harmonic algorithms (Theorem 5.1).
	Delta float64 `json:"delta"`
	// Rho is the approximation factor of rho-approx (Corollary 3.2), >= 1.
	Rho float64 `json:"rho"`
	// Bias is the ratio k_a/k of the advice handed to rho-approx agents; it
	// must lie in [1/Rho, Rho]. Zero selects 1/Rho, the conservative end of
	// the interval (a bias of exactly zero is never a legal value).
	Bias float64 `json:"bias"`
	// Mu is the tail exponent of the Lévy-flight baseline, in (1, 3].
	Mu float64 `json:"mu"`
	// D is the treasure distance revealed to the known-d baseline. Sweeps
	// fill it in per cell when left zero; resolving known-d without it is an
	// error.
	D int `json:"d"`

	// CrashProb/CrashBy/StallProb/StallBy/StallDur parameterise the fault
	// model (fault.Plan, DESIGN.md §10): each agent independently fail-stops
	// with probability CrashProb at a time uniform in [0, CrashBy), and
	// fail-stalls with probability StallProb from a start uniform in
	// [0, StallBy) for a duration uniform in [1, StallDur]. All-zero (the
	// default) leaves the agents perfectly reliable; FaultPlan assembles the
	// fields into the plan the sweep engine applies.
	CrashProb float64 `json:"crash_prob"`
	CrashBy   int     `json:"crash_by"`
	StallProb float64 `json:"stall_prob"`
	StallBy   int     `json:"stall_by"`
	StallDur  int     `json:"stall_dur"`
}

// FaultPlan assembles the fault knobs into a plan, or nil when they are all
// zero (the fault-free default, which keeps runs bit-identical to builds that
// predate the fault model).
func (p Params) FaultPlan() *fault.Plan {
	plan := fault.Plan{
		CrashProb: p.CrashProb,
		CrashBy:   p.CrashBy,
		StallProb: p.StallProb,
		StallBy:   p.StallBy,
		StallDur:  p.StallDur,
	}
	if plan.IsZero() {
		return nil
	}
	return &plan
}

// DefaultParams returns the parameter values the CLIs use as flag defaults.
func DefaultParams() Params {
	return Params{Epsilon: 0.5, Delta: 0.5, Rho: 2, Mu: 2}
}

// Scenario is one named, parameterisable search strategy: the unit the sweep
// engine enumerates. Build resolves the advice-model factory the Monte-Carlo
// trials use; Single (optional) resolves the algorithm a single simulated
// search runs, when that differs from Build(p)(k).
type Scenario struct {
	// Name is the stable identifier used by the CLIs and tables.
	Name string
	// Description is a one-line summary for listings.
	Description string
	// Uniform reports whether the strategy needs no information about k.
	Uniform bool
	// Build returns the advice-model factory for the given parameters: the
	// factory receives the true k and decides how much of it reaches the
	// agents (exact value, rho-approximation, nothing, ...).
	Build func(p Params) (agent.Factory, error)
	// Single, when non-nil, builds the algorithm for a single interactive
	// run with k agents. It exists for the advice scenarios whose
	// interactive semantics hand the agents the raw k (antsim's historical
	// behaviour) rather than the advice the factory would derive from it.
	Single func(p Params, k int) (agent.Algorithm, error)

	// Faults, when non-nil, is the scenario's default fault plan: the faulty
	// registry variants (known-k-faulty, ...) carry their crash/stall model
	// here. Explicit Params fault knobs override it per sweep.
	Faults *fault.Plan

	// Ks, Ds and Trials are the default sweep ranges and trial budget used
	// when a caller asks for the scenario's own grid.
	Ks, Ds []int
	Trials int
}

// registry is the global scenario table. Built-ins register from init;
// callers may add their own.
var (
	mu       sync.RWMutex
	registry = map[string]Scenario{}
)

// Register adds a scenario to the global registry. It returns an error if
// the name is empty, already taken, or the scenario has no Build function.
func Register(s Scenario) error {
	if s.Name == "" {
		return fmt.Errorf("scenario: cannot register a scenario without a name")
	}
	if s.Build == nil {
		return fmt.Errorf("scenario: %q has no Build function", s.Name)
	}
	mu.Lock()
	defer mu.Unlock()
	if _, dup := registry[s.Name]; dup {
		return fmt.Errorf("scenario: %q is already registered", s.Name)
	}
	registry[s.Name] = s
	return nil
}

// MustRegister is Register that panics on error, for init-time registration.
func MustRegister(s Scenario) {
	if err := Register(s); err != nil {
		panic(err)
	}
}

// Get returns the scenario registered under name.
func Get(name string) (Scenario, bool) {
	mu.RLock()
	defer mu.RUnlock()
	s, ok := registry[name]
	return s, ok
}

// Names returns the registered scenario names in sorted order.
func Names() []string {
	mu.RLock()
	defer mu.RUnlock()
	names := make([]string, 0, len(registry))
	for name := range registry { //antlint:allow maporder names are sorted before use below
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// All returns the registered scenarios in name order.
func All() []Scenario {
	mu.RLock()
	defer mu.RUnlock()
	out := make([]Scenario, 0, len(registry))
	for _, s := range registry { //antlint:allow maporder scenarios are sorted by name below
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Factory resolves the named scenario's advice-model factory for the given
// parameters.
func Factory(name string, p Params) (agent.Factory, error) {
	s, ok := Get(name)
	if !ok {
		return nil, fmt.Errorf("scenario: unknown scenario %q", name)
	}
	f, err := s.Build(p)
	if err != nil {
		return nil, fmt.Errorf("scenario %q: %w", name, err)
	}
	return f, nil
}

// Algorithm resolves the named scenario into the algorithm a single run with
// k agents executes (Single when defined, Build(p)(k) otherwise).
func Algorithm(name string, p Params, k int) (agent.Algorithm, error) {
	s, ok := Get(name)
	if !ok {
		return nil, fmt.Errorf("scenario: unknown scenario %q", name)
	}
	if s.Single != nil {
		alg, err := s.Single(p, k)
		if err != nil {
			return nil, fmt.Errorf("scenario %q: %w", name, err)
		}
		return alg, nil
	}
	f, err := s.Build(p)
	if err != nil {
		return nil, fmt.Errorf("scenario %q: %w", name, err)
	}
	alg := f(k)
	if alg == nil {
		return nil, fmt.Errorf("scenario %q: factory returned a nil algorithm", name)
	}
	return alg, nil
}
