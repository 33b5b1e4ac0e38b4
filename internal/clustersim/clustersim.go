// Package clustersim simulates the study's compute substrate: the Caddy
// cluster at Los Alamos — 150 nodes of dual-socket 8-core Sandy Bridge
// (2400 cores), grouped into 15 cages of ten nodes, interconnected by
// QLogic QDR InfiniBand, drawing 15 kW at idle and 44 kW under load.
//
// The machine advances a simulated clock through labeled execution phases
// (simulate, I/O wait, visualize, idle). Each phase draws per-node power
// according to a utilization model, recorded per cage so the Appro
// cage-level power monitors of the power package can observe the run the
// way the paper's instrumentation did. The paper's central measured fact —
// that compute power stays high even while the machine waits on I/O,
// because the I/O middleware keeps cores polling — is encoded as the
// near-unity utilization of the I/O-wait phase.
package clustersim

import (
	"fmt"

	"insituviz/internal/power"
	"insituviz/internal/trace"
	"insituviz/internal/units"
)

// PhaseKind classifies what the machine is doing.
type PhaseKind int

// The execution phases of a coupled simulation-visualization job.
const (
	PhaseIdle PhaseKind = iota
	PhaseSimulate
	PhaseIOWait
	PhaseVisualize
)

// String names the phase.
func (k PhaseKind) String() string {
	switch k {
	case PhaseIdle:
		return "idle"
	case PhaseSimulate:
		return "simulate"
	case PhaseIOWait:
		return "io-wait"
	case PhaseVisualize:
		return "visualize"
	}
	return fmt.Sprintf("phase(%d)", int(k))
}

// Utilization returns the node utilization the phase drives. I/O wait sits
// near full utilization: the paper measured essentially no power drop
// during I/O because PIO aggregation and completion polling keep the cores
// busy.
func (k PhaseKind) Utilization() float64 {
	switch k {
	case PhaseSimulate, PhaseVisualize:
		return 1.0
	case PhaseIOWait:
		return 0.95
	default:
		return 0.0
	}
}

// Interconnect is a latency/bandwidth model of the cluster fabric.
type Interconnect struct {
	Latency   units.Seconds        // per-message latency
	Bandwidth units.BytesPerSecond // effective point-to-point bandwidth
}

// QDRInfiniBand returns the QLogic QDR fabric parameters (40 Gb/s line
// rate, ~3.2 GB/s effective, ~1.3 us MPI latency).
func QDRInfiniBand() Interconnect {
	return Interconnect{Latency: 1.3e-6, Bandwidth: units.MegabytesPerSecond(3200)}
}

// Config describes a compute cluster.
type Config struct {
	Nodes         int
	CoresPerNode  int
	NodesPerCage  int // power-monitoring granularity
	NodeIdlePower units.Watts
	NodeBusyPower units.Watts
	Fabric        Interconnect
}

// Caddy returns the paper's cluster: 150 nodes x 16 cores, 15 cages,
// 15 kW idle / 44 kW loaded.
func Caddy() Config {
	return Config{
		Nodes:         150,
		CoresPerNode:  16,
		NodesPerCage:  10,
		NodeIdlePower: power.CaddyNodeIdleWatts,
		NodeBusyPower: power.CaddyNodeBusyWatts,
		Fabric:        QDRInfiniBand(),
	}
}

// Phase is one completed execution phase.
type Phase struct {
	Kind  PhaseKind
	Label string
	Start units.Seconds
	End   units.Seconds
}

// Duration returns the phase length.
func (p Phase) Duration() units.Seconds { return p.End - p.Start }

// Machine is a simulated cluster executing one job at a time (the paper
// ran its application on the entire dedicated machine, so there is no
// co-scheduling to model).
type Machine struct {
	cfg        Config
	clock      units.Seconds
	cageTraces []*power.Trace
	cageNodes  []int
	phases     []Phase
	lane       *trace.Lane
}

// New builds a machine from cfg.
func New(cfg Config) (*Machine, error) {
	if cfg.Nodes <= 0 || cfg.CoresPerNode <= 0 {
		return nil, fmt.Errorf("clustersim: invalid size %d nodes x %d cores", cfg.Nodes, cfg.CoresPerNode)
	}
	if cfg.NodesPerCage <= 0 {
		return nil, fmt.Errorf("clustersim: invalid cage size %d", cfg.NodesPerCage)
	}
	if cfg.NodeIdlePower < 0 || cfg.NodeBusyPower < cfg.NodeIdlePower {
		return nil, fmt.Errorf("clustersim: invalid node power range [%v, %v]",
			cfg.NodeIdlePower, cfg.NodeBusyPower)
	}
	m := &Machine{cfg: cfg}
	remaining := cfg.Nodes
	for remaining > 0 {
		n := cfg.NodesPerCage
		if n > remaining {
			n = remaining
		}
		m.cageNodes = append(m.cageNodes, n)
		m.cageTraces = append(m.cageTraces, &power.Trace{})
		remaining -= n
	}
	return m, nil
}

// SetTrace attaches a timeline lane: every executed phase is additionally
// recorded as a span at simulated time (span name = phase kind, so
// attribution groups by kind exactly as the paper's figures do; the
// phase label rides along as the span detail). A nil lane detaches.
func (m *Machine) SetTrace(lane *trace.Lane) { m.lane = lane }

// Clock returns the current simulated time.
func (m *Machine) Clock() units.Seconds { return m.clock }

// IdlePower returns the whole-cluster idle power.
func (m *Machine) IdlePower() units.Watts {
	return m.cfg.NodeIdlePower * units.Watts(m.cfg.Nodes)
}

// BusyPower returns the whole-cluster full-load power.
func (m *Machine) BusyPower() units.Watts {
	return m.cfg.NodeBusyPower * units.Watts(m.cfg.Nodes)
}

// PowerAt returns the whole-cluster power at the given utilization.
func (m *Machine) PowerAt(util float64) units.Watts {
	if util < 0 {
		util = 0
	}
	if util > 1 {
		util = 1
	}
	return m.IdlePower() + units.Watts(util)*(m.BusyPower()-m.IdlePower())
}

// PowerProportionality returns the cluster's dynamic power range as a
// fraction of idle — 193% for Caddy, versus 1.3% for its storage rack.
func (m *Machine) PowerProportionality() float64 {
	if m.IdlePower() == 0 {
		return 0
	}
	return float64(m.BusyPower()-m.IdlePower()) / float64(m.IdlePower())
}

// Run executes one phase of the given duration, advancing the clock and
// recording per-cage power.
func (m *Machine) Run(kind PhaseKind, d units.Seconds, label string) error {
	if d < 0 {
		return fmt.Errorf("clustersim: negative phase duration %v", d)
	}
	if d == 0 {
		return nil
	}
	start := m.clock
	end := start + d
	util := kind.Utilization()
	perNode := m.cfg.NodeIdlePower + units.Watts(util)*(m.cfg.NodeBusyPower-m.cfg.NodeIdlePower)
	for c, tr := range m.cageTraces {
		if err := tr.Append(start, end, perNode*units.Watts(m.cageNodes[c])); err != nil {
			return fmt.Errorf("clustersim: cage %d: %w", c, err)
		}
	}
	m.phases = append(m.phases, Phase{Kind: kind, Label: label, Start: start, End: end})
	m.lane.SpanAt(kind.String(), label, simNanos(start), simNanos(end))
	m.clock = end
	return nil
}

// simNanos converts simulated seconds to the tracer's nanosecond axis.
func simNanos(s units.Seconds) int64 { return int64(float64(s) * 1e9) }

// RunUntil executes a phase from the current clock to absolute time t,
// used to wait for an asynchronous storage completion.
func (m *Machine) RunUntil(kind PhaseKind, t units.Seconds, label string) error {
	if t < m.clock {
		return fmt.Errorf("clustersim: RunUntil target %v is before clock %v", t, m.clock)
	}
	return m.Run(kind, t-m.clock, label)
}

// Phases returns the executed phase log.
func (m *Machine) Phases() []Phase {
	return append([]Phase(nil), m.phases...)
}

// PhaseTime returns the total time spent in phases of the given kind.
func (m *Machine) PhaseTime(kind PhaseKind) units.Seconds {
	var s units.Seconds
	for _, p := range m.phases {
		if p.Kind == kind {
			s += p.Duration()
		}
	}
	return s
}

// PowerTrace returns the whole-cluster ground-truth power trace (the sum
// over cages).
func (m *Machine) PowerTrace() *power.Trace {
	return power.SumTraces(m.cageTraces...)
}

// MeterAllCages samples every cage with the given meter interval (the
// paper used one-minute Appro cage monitors) and returns the summed
// profile — the compute cluster's reported power, assembled exactly as the
// paper assembled its 15 monitor streams.
func (m *Machine) MeterAllCages(interval units.Seconds) (*power.Profile, error) {
	if len(m.phases) == 0 {
		return nil, fmt.Errorf("clustersim: nothing recorded yet")
	}
	profiles := make([]*power.Profile, len(m.cageTraces))
	for c, tr := range m.cageTraces {
		mt := power.Meter{Interval: interval, Name: fmt.Sprintf("cage%02d", c)}
		p, err := mt.Sample(tr)
		if err != nil {
			return nil, fmt.Errorf("clustersim: cage %d: %w", c, err)
		}
		profiles[c] = p
	}
	return power.SumProfiles(profiles...)
}
