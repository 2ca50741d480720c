// Package workflow is the function-composition layer over the
// simulated platform: a deterministic, virtual-clock engine that
// executes DAGs of deployed functions — sequential chains, fan-out /
// fan-in joins, and conditional branches on step output — with
// at-least-once step delivery over the message bus (internal/msgbus),
// per-step retries (faults.Retrier), and retry-exhausted steps routed
// to a per-workflow dead-letter topic that supports replayable
// redelivery.
//
// A workflow run is one end-to-end request: every step executes as a
// chained child invocation of the run's parent invocation, so the run
// accumulates a single latency breakdown on one virtual clock and the
// whole DAG renders as one Perfetto trace (workflow run span → step
// spans → the platform's invoke-stage spans), exactly like the paper's
// Figure 9 application chains.
//
// Runs start two ways: directly (Engine.Run), or from CouchDB
// change-feed triggers (AddChangeFeed + Drain) — the dashed
// "database-triggered chain" of Figure 8(b) as a first-class source.
package workflow

import (
	"encoding/json"
	"fmt"
	"strings"

	"repro/internal/faults"
)

// Condition gates a step on another step's output.
type Condition struct {
	// Step is the producing step inspected; it must be one of the
	// gated step's After dependencies.
	Step string `json:"step"`
	// Key selects a field of the producing step's result map; empty
	// compares the whole result.
	Key string `json:"key,omitempty"`
	// Equals is the string form of the required value (results are
	// compared via their canonical string rendering).
	Equals string `json:"equals"`
}

// Step is one node of a workflow DAG.
type Step struct {
	// ID names the step inside its workflow.
	ID string `json:"id"`
	// Function is the deployed function the step invokes.
	Function string `json:"function"`
	// After lists step IDs that must reach a terminal state before
	// this step is enqueued (empty = a root step).
	After []string `json:"after,omitempty"`
	// When, if set, skips the step unless the referenced step's output
	// matches. A skipped step is terminal: dependents still run (a
	// branch join), unless every one of their parents skipped.
	When *Condition `json:"when,omitempty"`
	// Input maps the step's parameters. String values starting with
	// "$input" or "$steps.<id>" are resolved against the run input and
	// prior step outputs ("$input.key", "$steps.validate",
	// "$steps.intent.intent"); everything else passes through
	// literally, recursively for nested maps and lists. A nil Input
	// passes the run input verbatim.
	Input map[string]any `json:"input,omitempty"`
	// InputFrom, when set, replaces the whole parameter map with one
	// resolved reference ("$steps.validate", "$input") that must
	// evaluate to a map — the step receives a prior step's document
	// as-is, the way an imperative chain passes its result along.
	// Takes precedence over Input.
	InputFrom string `json:"input_from,omitempty"`
	// Retry overrides the engine's per-step retry policy for this step
	// (programmatic specs only; not part of the JSON format).
	Retry *faults.RetryPolicy `json:"-"`
}

// Spec is a declarative workflow: a named DAG of steps.
type Spec struct {
	Name  string `json:"name"`
	Steps []Step `json:"steps"`
}

// ParseSpec decodes and validates a JSON workflow spec (the shape
// POST /workflows accepts; see docs/workflows.md).
func ParseSpec(data []byte) (*Spec, error) {
	var s Spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("workflow: spec: %w", err)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// Validate checks the spec is a well-formed DAG: named, non-empty,
// unique step IDs, dependencies that exist, conditions that reference
// a dependency, and no cycles.
func (s *Spec) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("workflow: spec needs a name")
	}
	if len(s.Steps) == 0 {
		return fmt.Errorf("workflow %q: needs at least one step", s.Name)
	}
	byID := make(map[string]*Step, len(s.Steps))
	for i := range s.Steps {
		st := &s.Steps[i]
		if st.ID == "" {
			return fmt.Errorf("workflow %q: step %d needs an id", s.Name, i)
		}
		if st.Function == "" {
			return fmt.Errorf("workflow %q: step %q needs a function", s.Name, st.ID)
		}
		if _, dup := byID[st.ID]; dup {
			return fmt.Errorf("workflow %q: duplicate step id %q", s.Name, st.ID)
		}
		byID[st.ID] = st
	}
	for i := range s.Steps {
		st := &s.Steps[i]
		for _, dep := range st.After {
			if _, ok := byID[dep]; !ok {
				return fmt.Errorf("workflow %q: step %q depends on unknown step %q", s.Name, st.ID, dep)
			}
		}
		if st.When != nil {
			found := false
			for _, dep := range st.After {
				if dep == st.When.Step {
					found = true
				}
			}
			if !found {
				return fmt.Errorf("workflow %q: step %q condition references %q, which is not in its after list",
					s.Name, st.ID, st.When.Step)
			}
		}
	}
	if _, err := s.topoOrder(); err != nil {
		return err
	}
	return nil
}

// topoOrder returns step IDs in a deterministic topological order
// (spec order among ready steps), or an error naming a cycle member.
func (s *Spec) topoOrder() ([]string, error) {
	indeg := make(map[string]int, len(s.Steps))
	for i := range s.Steps {
		indeg[s.Steps[i].ID] = len(s.Steps[i].After)
	}
	var order []string
	done := make(map[string]bool, len(s.Steps))
	for len(order) < len(s.Steps) {
		progressed := false
		for i := range s.Steps {
			st := &s.Steps[i]
			if done[st.ID] || indeg[st.ID] != 0 {
				continue
			}
			done[st.ID] = true
			order = append(order, st.ID)
			for j := range s.Steps {
				for _, dep := range s.Steps[j].After {
					if dep == st.ID {
						indeg[s.Steps[j].ID]--
					}
				}
			}
			progressed = true
		}
		if !progressed {
			var stuck []string
			for i := range s.Steps {
				if !done[s.Steps[i].ID] {
					stuck = append(stuck, s.Steps[i].ID)
				}
			}
			return nil, fmt.Errorf("workflow %q: dependency cycle through %s", s.Name, strings.Join(stuck, ", "))
		}
	}
	return order, nil
}

// step returns the step with the given ID (nil when absent).
func (s *Spec) step(id string) *Step {
	for i := range s.Steps {
		if s.Steps[i].ID == id {
			return &s.Steps[i]
		}
	}
	return nil
}

// resolveInput materializes a step's parameter map against the run
// input and completed step outputs.
func resolveInput(st *Step, input map[string]any, results map[string]any) (map[string]any, error) {
	if st.InputFrom != "" {
		rv, err := resolveValue(st.InputFrom, input, results)
		if err != nil {
			return nil, fmt.Errorf("workflow: step %q input_from: %w", st.ID, err)
		}
		m, ok := rv.(map[string]any)
		if !ok {
			return nil, fmt.Errorf("workflow: step %q input_from %q: resolved to %T, want a map", st.ID, st.InputFrom, rv)
		}
		return m, nil
	}
	if st.Input == nil {
		if input == nil {
			return map[string]any{}, nil
		}
		return input, nil
	}
	out := make(map[string]any, len(st.Input))
	for k, v := range st.Input {
		rv, err := resolveValue(v, input, results)
		if err != nil {
			return nil, fmt.Errorf("workflow: step %q input %q: %w", st.ID, k, err)
		}
		out[k] = rv
	}
	return out, nil
}

// resolveValue substitutes one "$input..." / "$steps..." reference (or
// recurses through nested containers); literals pass through.
func resolveValue(v any, input map[string]any, results map[string]any) (any, error) {
	switch v := v.(type) {
	case string:
		if !strings.HasPrefix(v, "$") {
			return v, nil
		}
		parts := strings.Split(v, ".")
		switch parts[0] {
		case "$input":
			switch len(parts) {
			case 1:
				return input, nil
			case 2:
				return input[parts[1]], nil
			}
			return nil, fmt.Errorf("reference %q nests too deep (one key max)", v)
		case "$steps":
			if len(parts) < 2 || len(parts) > 3 {
				return nil, fmt.Errorf("reference %q must be $steps.<id> or $steps.<id>.<key>", v)
			}
			res, ok := results[parts[1]]
			if !ok {
				return nil, fmt.Errorf("reference %q: step has no recorded output", v)
			}
			if len(parts) == 2 {
				return res, nil
			}
			m, ok := res.(map[string]any)
			if !ok {
				return nil, fmt.Errorf("reference %q: step output is not a map", v)
			}
			return m[parts[2]], nil
		}
		return nil, fmt.Errorf("unknown reference root %q (want $input or $steps)", parts[0])
	case map[string]any:
		out := make(map[string]any, len(v))
		for k, item := range v {
			rv, err := resolveValue(item, input, results)
			if err != nil {
				return nil, err
			}
			out[k] = rv
		}
		return out, nil
	case []any:
		out := make([]any, len(v))
		for i, item := range v {
			rv, err := resolveValue(item, input, results)
			if err != nil {
				return nil, err
			}
			out[i] = rv
		}
		return out, nil
	default:
		return v, nil
	}
}

// conditionValue renders a condition operand for comparison.
func conditionValue(v any) string {
	switch v := v.(type) {
	case nil:
		return "null"
	case float64:
		// Integral floats print without the trailing ".0" JSON round
		// trips would otherwise introduce.
		if v == float64(int64(v)) {
			return fmt.Sprintf("%d", int64(v))
		}
		return fmt.Sprintf("%v", v)
	default:
		return fmt.Sprintf("%v", v)
	}
}

// holds evaluates a condition against the producing step's output.
func (c *Condition) holds(results map[string]any) bool {
	res, ok := results[c.Step]
	if !ok {
		return false
	}
	v := res
	if c.Key != "" {
		m, ok := res.(map[string]any)
		if !ok {
			return false
		}
		v = m[c.Key]
	}
	return conditionValue(v) == c.Equals
}
