package faults

// AgentPlan extends the fault fabric across process boundaries: it scripts
// deterministic chaos for the distributed probing agents (cmd/cloudmapagent)
// the dispatch controller leases campaign chunks to. Where Plan perturbs the
// measurement plane (what probes see), AgentPlan perturbs the execution
// plane (which processes survive to report results) — crashes, stalls, and
// network partitions, each a pure function of (plan seed, agent identity,
// virtual-time window). Results are never affected: a chunk abandoned by a
// chaos-stricken agent is re-leased or run locally and produces the same
// bytes; the plan only decides who does the work and how painfully.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"time"

	"cloudmap/internal/rng"
)

// AgentPlan configures deterministic probe-agent chaos. The zero plan
// injects nothing; sections are enabled by presence. Plans are plain JSON
// documents (see testdata/agentplans) loaded per agent process, so the
// whole failure matrix of a distributed campaign replays reproducibly.
type AgentPlan struct {
	// Seed drives every draw; mixed with a hash of the agent ID so the
	// same plan gives different (individually reproducible) timelines to
	// different agents.
	Seed uint64 `json:"seed"`
	// WindowChunks is the width of one virtual-time window, measured in
	// campaign chunk indexes (the distributed layer's natural clock: chunk
	// i of any round lands in window i/WindowChunks). Defaults to 8.
	WindowChunks int `json:"window_chunks,omitempty"`

	Crash     *AgentCrashPlan     `json:"crash,omitempty"`
	Stall     *AgentStallPlan     `json:"stall,omitempty"`
	Partition *AgentPartitionPlan `json:"partition,omitempty"`
}

// AgentCrashPlan kills the agent process: in each crashing window the agent
// exits the moment it accepts a lease. The controller sees the connection
// die and re-dispatches.
type AgentCrashPlan struct {
	// Prob is the per-window probability the agent crashes on lease work.
	Prob float64 `json:"prob"`
}

// AgentStallPlan freezes lease execution: in each stalling window the agent
// sleeps Sec wall-clock seconds before probing, long enough (when Sec
// exceeds the controller's lease deadline) to trigger expiry and hedging.
type AgentStallPlan struct {
	Prob float64 `json:"prob"`
	Sec  float64 `json:"sec"`
}

// AgentPartitionPlan severs the agent from the controller: in each
// partitioned window the agent refuses leases with a transport-level
// error, as a network partition would.
type AgentPartitionPlan struct {
	Prob float64 `json:"prob"`
}

// withDefaults fills unset knobs.
func (p AgentPlan) withDefaults() AgentPlan {
	if p.WindowChunks <= 0 {
		p.WindowChunks = 8
	}
	return p
}

// Validate rejects out-of-range knobs with a field-specific error.
func (p *AgentPlan) Validate() error {
	checkProb := func(name string, v float64) error {
		if v < 0 || v > 1 {
			return fmt.Errorf("faults: %s = %v out of [0,1]", name, v)
		}
		return nil
	}
	if p.WindowChunks < 0 {
		return fmt.Errorf("faults: window_chunks = %d must be positive", p.WindowChunks)
	}
	if c := p.Crash; c != nil {
		if err := checkProb("crash.prob", c.Prob); err != nil {
			return err
		}
	}
	if s := p.Stall; s != nil {
		if err := checkProb("stall.prob", s.Prob); err != nil {
			return err
		}
		if s.Sec <= 0 {
			return fmt.Errorf("faults: stall.sec = %v must be positive", s.Sec)
		}
	}
	if pt := p.Partition; pt != nil {
		if err := checkProb("partition.prob", pt.Prob); err != nil {
			return err
		}
	}
	return nil
}

// LoadAgentPlan reads and validates a JSON agent plan file (the
// cloudmapagent -agent-plan flag). Unknown fields are rejected so a typoed
// knob fails loudly instead of silently injecting nothing.
func LoadAgentPlan(path string) (*AgentPlan, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("faults: read agent plan: %w", err)
	}
	return ParseAgentPlan(raw)
}

// ParseAgentPlan decodes and validates a JSON agent plan document.
func ParseAgentPlan(raw []byte) (*AgentPlan, error) {
	var p AgentPlan
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&p); err != nil {
		return nil, fmt.Errorf("faults: parse agent plan: %w", err)
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &p, nil
}

// Agent-chaos draw salts (same discipline as the injector's: one salt per
// dimension so draws never correlate).
const (
	saltAgentID    = 0xa9e27
	saltAgentCrash = 0xc4a54
	saltAgentStall = 0x57a11
	saltAgentPart  = 0x9a472
)

// AgentChaos is an AgentPlan bound to one agent identity. It is stateless,
// safe for concurrent use, and — like the injector — nil-receiver-safe:
// a nil *AgentChaos injects nothing.
type AgentChaos struct {
	plan AgentPlan
	seed uint64 // plan seed ⊕ hashed agent ID
}

// Bind evaluates the plan for the named agent. A nil plan returns a nil
// chaos (inject nothing), so callers never branch.
func (p *AgentPlan) Bind(agentID string) (*AgentChaos, error) {
	if p == nil {
		return nil, nil
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	var idHash uint64 = saltAgentID
	for _, b := range []byte(agentID) {
		idHash = rng.Mix64(idHash ^ uint64(b))
	}
	return &AgentChaos{plan: p.withDefaults(), seed: p.Seed ^ idHash}, nil
}

// window maps a chunk index onto its virtual-time window.
func (c *AgentChaos) window(chunk int) uint64 {
	if chunk < 0 {
		chunk = 0
	}
	return uint64(chunk / c.plan.WindowChunks)
}

func (c *AgentChaos) draw(salt uint64, chunk int) float64 {
	h := rng.Mix64(rng.Mix64(c.seed^salt) ^ c.window(chunk))
	return rng.Unit(h)
}

// CrashOn reports whether the agent crashes when leased work in the given
// chunk's window.
func (c *AgentChaos) CrashOn(chunk int) bool {
	if c == nil || c.plan.Crash == nil {
		return false
	}
	return c.draw(saltAgentCrash, chunk) < c.plan.Crash.Prob
}

// StallFor returns how long the agent freezes before executing work in the
// given chunk's window (0 = no stall).
func (c *AgentChaos) StallFor(chunk int) time.Duration {
	if c == nil || c.plan.Stall == nil {
		return 0
	}
	if c.draw(saltAgentStall, chunk) < c.plan.Stall.Prob {
		return time.Duration(c.plan.Stall.Sec * float64(time.Second))
	}
	return 0
}

// PartitionedOn reports whether the agent is partitioned from the
// controller in the given chunk's window.
func (c *AgentChaos) PartitionedOn(chunk int) bool {
	if c == nil || c.plan.Partition == nil {
		return false
	}
	return c.draw(saltAgentPart, chunk) < c.plan.Partition.Prob
}
