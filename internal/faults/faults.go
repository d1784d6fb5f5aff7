// Package faults is the fault-injection subsystem: a deterministic,
// seedable schedule of typed fault events (link degradation/failure/
// recovery, host stragglers, agent crashes and restarts, network
// partitions) that two drivers replay against the rest of the system.
//
// The sim driver (CompileSim) lowers a schedule into the event simulator's
// fabric capacity changes and compute-time dilations, so every scheduler
// can be evaluated under the same reproducible incident sequence (E12).
// The live driver (Driver) replays the same schedule in wall-clock time
// against the loopback Coordinator/Agent cluster, killing and reviving
// agent sessions and rewriting the coordinator's capacity model.
//
// Schedules are plain data: load them from JSON (Load/Parse), construct
// them in code, or draw a reproducible random one (Generate). The same
// schedule file drives both the simulator and the live cluster.
package faults

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"sort"

	"echelonflow/internal/unit"
)

// Kind enumerates the fault event types.
type Kind string

const (
	// LinkDegrade rewrites Host's NIC capacities to Egress/Ingress.
	LinkDegrade Kind = "link_degrade"
	// LinkFail cuts Host's NIC down in both directions (drivers leave the
	// OutageFraction residual so fluid-model planning stays feasible).
	LinkFail Kind = "link_fail"
	// LinkRecover restores Host's NIC to its pre-schedule baseline.
	LinkRecover Kind = "link_recover"
	// HostStraggle dilates computation on Host by Factor (>1 slows, 1
	// restores full speed).
	HostStraggle Kind = "host_straggle"
	// AgentCrash kills the named Agent's session. In the simulator (which
	// has no agents) the crash is modelled on Host: its NIC goes down
	// until the matching AgentRestart.
	AgentCrash Kind = "agent_crash"
	// AgentRestart revives the named Agent (sim: restores Host's NIC).
	AgentRestart Kind = "agent_restart"
	// Partition isolates every host in Hosts from the fabric (all their
	// NICs go down).
	Partition Kind = "partition"
	// PartitionHeal restores every host in Hosts to baseline.
	PartitionHeal Kind = "partition_heal"
	// CoordinatorCrash kills the coordinator process: control-plane state
	// survives only through its journal. The simulator has no control
	// plane, so the sim driver treats it as a no-op.
	CoordinatorCrash Kind = "coordinator_crash"
	// CoordinatorRestart brings the coordinator back, recovering from its
	// journal (coordinator.Restore) and awaiting agent re-adoption.
	CoordinatorRestart Kind = "coordinator_restart"
	// SchedStall adds For seconds to the elapsed time the coordinator's
	// scheduler deadline budget measures for every pass — the gray-failure
	// condition the budget degrades under, without sleeping: a stall above
	// the budget sends every pass to the max-min fair fallback. For=0
	// clears the stall. The simulator has no budget, so the sim driver
	// treats it as a no-op.
	SchedStall Kind = "sched_stall"
	// AgentStall delays the named Agent's report/heartbeat path by For
	// seconds per message, making it a straggler without killing it (the
	// condition soft-quarantine detects). For=0 clears. Sim: no-op.
	AgentStall Kind = "agent_stall"
	// FsyncStall makes every journal append's fsync take an extra For
	// seconds. For=0 clears. Sim: no-op (the simulator has no journal).
	FsyncStall Kind = "fsync_stall"
)

// Event is one timed fault. Which fields matter depends on Kind; Validate
// enforces the pairing.
type Event struct {
	// At is the event time: simulated seconds for the sim driver,
	// wall-clock seconds since replay start for the live driver.
	At unit.Time `json:"at"`
	// Kind selects the fault type.
	Kind Kind `json:"kind"`
	// Host targets link and straggle events (and locates agent events on
	// the fabric for the sim driver).
	Host string `json:"host,omitempty"`
	// Hosts targets partition events.
	Hosts []string `json:"hosts,omitempty"`
	// Egress/Ingress are the degraded capacities for LinkDegrade.
	Egress  unit.Rate `json:"egress,omitempty"`
	Ingress unit.Rate `json:"ingress,omitempty"`
	// Factor is the HostStraggle compute dilation.
	Factor float64 `json:"factor,omitempty"`
	// Agent names the session for AgentCrash/AgentRestart/AgentStall.
	Agent string `json:"agent,omitempty"`
	// For is the injected latency, in seconds, for the stall kinds
	// (sched_stall, agent_stall, fsync_stall); zero clears the stall.
	For unit.Time `json:"for,omitempty"`
}

// Validate checks the event's fields against its kind.
func (e Event) Validate() error {
	if e.At < 0 {
		return fmt.Errorf("faults: %s event at negative time %v", e.Kind, e.At)
	}
	switch e.Kind {
	case LinkDegrade:
		if e.Host == "" {
			return fmt.Errorf("faults: link_degrade needs a host")
		}
		if e.Egress < 0 || e.Ingress < 0 {
			return fmt.Errorf("faults: link_degrade on %q has negative capacity", e.Host)
		}
	case LinkFail, LinkRecover:
		if e.Host == "" {
			return fmt.Errorf("faults: %s needs a host", e.Kind)
		}
	case HostStraggle:
		if e.Host == "" {
			return fmt.Errorf("faults: host_straggle needs a host")
		}
		if e.Factor <= 0 {
			return fmt.Errorf("faults: host_straggle on %q needs a positive factor, got %v", e.Host, e.Factor)
		}
	case AgentCrash, AgentRestart:
		if e.Agent == "" {
			return fmt.Errorf("faults: %s needs an agent name", e.Kind)
		}
	case Partition, PartitionHeal:
		if len(e.Hosts) == 0 {
			return fmt.Errorf("faults: %s needs at least one host", e.Kind)
		}
	case CoordinatorCrash, CoordinatorRestart:
		// Target-free: there is exactly one coordinator.
	case SchedStall, FsyncStall:
		if e.For < 0 {
			return fmt.Errorf("faults: %s needs a non-negative stall, got %v", e.Kind, e.For)
		}
	case AgentStall:
		if e.Agent == "" {
			return fmt.Errorf("faults: agent_stall needs an agent name")
		}
		if e.For < 0 {
			return fmt.Errorf("faults: agent_stall on %q needs a non-negative stall, got %v", e.Agent, e.For)
		}
	default:
		return fmt.Errorf("faults: unknown event kind %q", e.Kind)
	}
	return nil
}

// Schedule is an ordered fault-event list. Seed records the generator seed
// for provenance (zero for hand-written schedules); determinism of a replay
// depends only on Events.
type Schedule struct {
	Seed   int64   `json:"seed,omitempty"`
	Events []Event `json:"events"`
}

// Validate checks every event and that the list is replayable.
func (s *Schedule) Validate() error {
	for i, e := range s.Events {
		if err := e.Validate(); err != nil {
			return fmt.Errorf("event %d: %w", i, err)
		}
	}
	return nil
}

// Sorted returns the events in time order, stable for equal times, leaving
// the schedule untouched.
func (s *Schedule) Sorted() []Event {
	out := append([]Event(nil), s.Events...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].At < out[j].At })
	return out
}

// Empty reports whether the schedule injects nothing.
func (s *Schedule) Empty() bool { return s == nil || len(s.Events) == 0 }

// End returns the time of the last event, or zero for an empty schedule.
func (s *Schedule) End() unit.Time {
	var end unit.Time
	for _, e := range s.Events {
		if e.At > end {
			end = e.At
		}
	}
	return end
}

// Parse decodes a JSON schedule and validates it. Unknown fields are
// rejected so a typo'd schedule fails loudly instead of silently injecting
// nothing.
func Parse(data []byte) (*Schedule, error) {
	var s Schedule
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("faults: parse schedule: %w", err)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// Load reads and parses a JSON schedule file.
func Load(path string) (*Schedule, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("faults: %w", err)
	}
	s, err := Parse(data)
	if err != nil {
		return nil, fmt.Errorf("faults: %s: %w", path, err)
	}
	return s, nil
}

// GenConfig parameterises Generate.
type GenConfig struct {
	// Seed fixes the random stream; the same config always yields the
	// same schedule.
	Seed int64
	// Hosts are the candidate fault targets. Required.
	Hosts []string
	// Horizon bounds event times to [0, Horizon). Required.
	Horizon unit.Time
	// Incidents is how many degrade->recover / straggle->restore pairs to
	// draw (default 3).
	Incidents int
	// MaxStraggle bounds the straggle factor (default 2; minimum drawn
	// factor is 1.1 so every straggle incident is observable).
	MaxStraggle float64
	// DegradeFraction scales degraded capacity relative to baseline
	// capacity Baseline (default 1/3). Baseline must be set when any
	// degrade incident is drawn.
	DegradeFraction float64
	Baseline        unit.Rate
	// StallIncidents is how many gray-failure stall incidents
	// (sched_stall / fsync_stall / agent_stall) to draw in addition to the
	// capacity/straggle incidents (default 0 — none, which also keeps the
	// random stream of pre-existing configs unchanged).
	StallIncidents int
	// Agents are candidate agent_stall targets; when empty, stall
	// incidents only draw sched_stall and fsync_stall.
	Agents []string
	// MaxStall bounds the injected stall in seconds (default 0.2).
	MaxStall unit.Time
}

// Generate draws a reproducible random schedule: Incidents incidents, each
// either a link degradation or a host straggle, with a recovery event at a
// random later time inside the horizon. Identical configs yield identical
// schedules (math/rand with a fixed seed), making chaos runs replayable
// from just the seed.
func Generate(cfg GenConfig) (*Schedule, error) {
	if len(cfg.Hosts) == 0 {
		return nil, fmt.Errorf("faults: Generate needs hosts")
	}
	if cfg.Horizon <= 0 {
		return nil, fmt.Errorf("faults: Generate needs a positive horizon")
	}
	if cfg.Incidents <= 0 {
		cfg.Incidents = 3
	}
	if cfg.MaxStraggle <= 1 {
		cfg.MaxStraggle = 2
	}
	if cfg.DegradeFraction <= 0 || cfg.DegradeFraction >= 1 {
		cfg.DegradeFraction = 1.0 / 3
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	s := &Schedule{Seed: cfg.Seed}
	for i := 0; i < cfg.Incidents; i++ {
		host := cfg.Hosts[rng.Intn(len(cfg.Hosts))]
		start := unit.Time(rng.Float64() * float64(cfg.Horizon) * 0.6)
		end := start + unit.Time((0.1+0.3*rng.Float64())*float64(cfg.Horizon))
		if end >= cfg.Horizon {
			end = cfg.Horizon - unit.Time(unit.Eps)
		}
		if rng.Intn(2) == 0 {
			if cfg.Baseline <= 0 {
				return nil, fmt.Errorf("faults: Generate drew a degrade incident but Baseline is unset")
			}
			cap0 := unit.Rate(float64(cfg.Baseline) * cfg.DegradeFraction)
			s.Events = append(s.Events,
				Event{At: start, Kind: LinkDegrade, Host: host, Egress: cap0, Ingress: cap0},
				Event{At: end, Kind: LinkRecover, Host: host})
		} else {
			factor := 1.1 + rng.Float64()*(cfg.MaxStraggle-1.1)
			s.Events = append(s.Events,
				Event{At: start, Kind: HostStraggle, Host: host, Factor: factor},
				Event{At: end, Kind: HostStraggle, Host: host, Factor: 1})
		}
	}
	if cfg.MaxStall <= 0 {
		cfg.MaxStall = 0.2
	}
	for i := 0; i < cfg.StallIncidents; i++ {
		start := unit.Time(rng.Float64() * float64(cfg.Horizon) * 0.6)
		end := start + unit.Time((0.1+0.3*rng.Float64())*float64(cfg.Horizon))
		if end >= cfg.Horizon {
			end = cfg.Horizon - unit.Time(unit.Eps)
		}
		stall := unit.Time(0.2+0.8*rng.Float64()) * cfg.MaxStall
		kinds := []Kind{SchedStall, FsyncStall}
		if len(cfg.Agents) > 0 {
			kinds = append(kinds, AgentStall)
		}
		kind := kinds[rng.Intn(len(kinds))]
		on := Event{At: start, Kind: kind, For: stall}
		off := Event{At: end, Kind: kind}
		if kind == AgentStall {
			agent := cfg.Agents[rng.Intn(len(cfg.Agents))]
			on.Agent, off.Agent = agent, agent
		}
		s.Events = append(s.Events, on, off)
	}
	s.Events = s.Sorted()
	return s, nil
}

// Sample is the canned chaos schedule shipped in examples/faults/chaos.json
// and replayed by experiment E12: a link degradation with recovery, a
// straggler episode, and an agent crash/restart, spread over a pipeline
// iteration.
func Sample() *Schedule {
	return &Schedule{
		Events: []Event{
			{At: 3, Kind: LinkDegrade, Host: "s0", Egress: 2, Ingress: 2},
			{At: 5, Kind: HostStraggle, Host: "s2", Factor: 1.5},
			{At: 8, Kind: LinkRecover, Host: "s0"},
			{At: 10, Kind: HostStraggle, Host: "s2", Factor: 1},
			{At: 12, Kind: AgentCrash, Agent: "a1", Host: "s1"},
			{At: 13, Kind: AgentRestart, Agent: "a1", Host: "s1"},
		},
	}
}
