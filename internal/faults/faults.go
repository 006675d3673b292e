// Package faults is the deterministic fault-injection subsystem: a
// seed-driven fault plan (loss bursts, per-link delay spikes, frame
// reordering, duplication, node crash/restart windows, and
// link-partition intervals, all expressed as simulated-time schedules)
// plus an Injector that applies the plan to any netsim.Fabric as a
// wrapping layer.
//
// The paper's claim is that Global_Read tolerates stale data while
// guaranteeing bounded staleness; package netsim's independent frame
// loss alone cannot exercise the failure modes that claim must survive
// (a dropped update otherwise blocks a Global_Read forever). The plan
// engine makes those scenarios reproducible: the same (engine seed,
// plan) pair always yields the same drops, delays, duplications and
// reorderings, in the FoundationDB simulation-testing tradition —
// chaos schedules you can replay byte for byte.
//
// Everything here is strictly opt-in: a nil plan means the fabric is
// used unwrapped and behavior is bit-identical to a build without this
// package.
package faults

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"sort"
)

// AnyNode is the wildcard for Src/Dst link selectors: the schedule
// entry applies to frames on every link.
const AnyNode = -1

// LossBurst drops frames with probability Prob while active. Src/Dst
// restrict it to one directed link (AnyNode = wildcard), so a plan can
// express both "the whole medium goes bad" and "this one cable is
// flaky".
type LossBurst struct {
	From float64 `json:"from"` // window start, virtual seconds
	To   float64 `json:"to"`   // window end, virtual seconds
	Prob float64 `json:"prob"` // per-frame drop probability in [0,1]
	Src  int     `json:"src"`  // sending node id, or AnyNode
	Dst  int     `json:"dst"`  // receiving node id, or AnyNode
}

// DelaySpike adds Delay (plus a uniform draw in [0,Jitter)) of extra
// latency to matching deliveries while active — a congested or
// rate-limited link.
type DelaySpike struct {
	From   float64 `json:"from"`
	To     float64 `json:"to"`
	Delay  float64 `json:"delay"`            // seconds added per frame
	Jitter float64 `json:"jitter,omitempty"` // uniform extra in [0,Jitter) seconds
	Src    int     `json:"src"`
	Dst    int     `json:"dst"`
}

// ReorderWindow perturbs delivery order: while active, each frame is
// independently held back with probability Prob by a uniform draw in
// [0,MaxDelay) seconds, letting later frames overtake it.
type ReorderWindow struct {
	From     float64 `json:"from"`
	To       float64 `json:"to"`
	Prob     float64 `json:"prob"`
	MaxDelay float64 `json:"max_delay"` // seconds
}

// DuplicateWindow delivers matching frames twice with probability Prob
// — the duplicate arrives immediately after the original.
type DuplicateWindow struct {
	From float64 `json:"from"`
	To   float64 `json:"to"`
	Prob float64 `json:"prob"`
}

// CrashWindow takes a node off the network for [From,To): every frame
// it sends while crashed and every frame delivered to it while crashed
// is lost. The node's process keeps computing (the model is a NIC or
// daemon crash with restart, not a wiped host); at To the node is
// reachable again.
type CrashWindow struct {
	Node int     `json:"node"`
	From float64 `json:"from"`
	To   float64 `json:"to"`
}

// PartitionWindow splits the network for [From,To): frames between
// GroupA and GroupB (either direction) are lost; traffic within a
// group flows normally.
type PartitionWindow struct {
	From   float64 `json:"from"`
	To     float64 `json:"to"`
	GroupA []int   `json:"group_a"`
	GroupB []int   `json:"group_b"`
}

// Plan is a complete fault schedule. The zero value is a valid no-op
// plan. Seed perturbs the injector's random stream so the same engine
// seed can be exercised under many fault interleavings.
type Plan struct {
	Name       string            `json:"name,omitempty"`
	Seed       int64             `json:"seed,omitempty"`
	Loss       []LossBurst       `json:"loss,omitempty"`
	Delays     []DelaySpike      `json:"delays,omitempty"`
	Reorders   []ReorderWindow   `json:"reorders,omitempty"`
	Duplicates []DuplicateWindow `json:"duplicates,omitempty"`
	Crashes    []CrashWindow     `json:"crashes,omitempty"`
	Partitions []PartitionWindow `json:"partitions,omitempty"`
}

// lossBurstJSON etc. exist so omitted src/dst fields default to
// AnyNode rather than node 0 — "any link" is the sensible JSON default
// and node 0 is a real node. Custom unmarshalers escape the outer
// decoder's unknown-field check, so decodeStrict re-applies it here.
type lossBurstJSON LossBurst

func decodeStrict(data []byte, v interface{}) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// UnmarshalJSON decodes a LossBurst with Src/Dst defaulting to AnyNode.
func (b *LossBurst) UnmarshalJSON(data []byte) error {
	a := lossBurstJSON{Src: AnyNode, Dst: AnyNode}
	if err := decodeStrict(data, &a); err != nil {
		return err
	}
	*b = LossBurst(a)
	return nil
}

type delaySpikeJSON DelaySpike

// UnmarshalJSON decodes a DelaySpike with Src/Dst defaulting to AnyNode.
func (d *DelaySpike) UnmarshalJSON(data []byte) error {
	a := delaySpikeJSON{Src: AnyNode, Dst: AnyNode}
	if err := decodeStrict(data, &a); err != nil {
		return err
	}
	*d = DelaySpike(a)
	return nil
}

// Drops reports whether the plan can lose messages: a loss burst with
// a non-zero probability, a crash window or a partition window. Only
// the reliable transport resends what is lost; on the plain one a
// barrier, or a Global_Read with no timeout, waits for it forever.
func (p *Plan) Drops() bool {
	if p == nil {
		return false
	}
	for _, b := range p.Loss {
		if b.Prob > 0 {
			return true
		}
	}
	return len(p.Crashes) > 0 || len(p.Partitions) > 0
}

// Repeats reports whether the plan can deliver a frame twice: a
// duplicate window with a non-zero probability. Only the reliable
// transport discards the copy by its sequence number; on the plain one
// a Sync barrier can take the copy of an old message for the current one.
func (p *Plan) Repeats() bool {
	if p == nil {
		return false
	}
	for _, d := range p.Duplicates {
		if d.Prob > 0 {
			return true
		}
	}
	return false
}

func checkWindow(kind string, i int, from, to float64) error {
	if from < 0 {
		return fmt.Errorf("faults: %s[%d]: negative start time %g", kind, i, from)
	}
	if to <= from {
		return fmt.Errorf("faults: %s[%d]: window [%g,%g) is empty or inverted", kind, i, from, to)
	}
	return nil
}

func checkProb(kind string, i int, prob float64) error {
	if prob < 0 || prob > 1 {
		return fmt.Errorf("faults: %s[%d]: probability %g outside [0,1]", kind, i, prob)
	}
	return nil
}

func checkNode(kind string, i, node, nodes int, wildcardOK bool) error {
	if wildcardOK && node == AnyNode {
		return nil
	}
	if node < 0 {
		return fmt.Errorf("faults: %s[%d]: invalid node id %d", kind, i, node)
	}
	if nodes > 0 && node >= nodes {
		return fmt.Errorf("faults: %s[%d]: unknown node id %d (fabric has %d nodes)", kind, i, node, nodes)
	}
	return nil
}

// Validate checks the plan's schedules: non-negative and non-inverted
// windows, probabilities in [0,1], non-overlapping crash windows per
// node, disjoint non-empty partition groups, and — when nodes > 0 —
// every node id within the fabric. Pass nodes = 0 for the structural
// check alone (parse time, before any fabric exists).
func (p *Plan) Validate(nodes int) error {
	for i, b := range p.Loss {
		if err := checkWindow("loss", i, b.From, b.To); err != nil {
			return err
		}
		if err := checkProb("loss", i, b.Prob); err != nil {
			return err
		}
		if err := checkNode("loss.src", i, b.Src, nodes, true); err != nil {
			return err
		}
		if err := checkNode("loss.dst", i, b.Dst, nodes, true); err != nil {
			return err
		}
	}
	for i, d := range p.Delays {
		if err := checkWindow("delays", i, d.From, d.To); err != nil {
			return err
		}
		if d.Delay < 0 || d.Jitter < 0 {
			return fmt.Errorf("faults: delays[%d]: negative delay or jitter", i)
		}
		if err := checkNode("delays.src", i, d.Src, nodes, true); err != nil {
			return err
		}
		if err := checkNode("delays.dst", i, d.Dst, nodes, true); err != nil {
			return err
		}
	}
	for i, r := range p.Reorders {
		if err := checkWindow("reorders", i, r.From, r.To); err != nil {
			return err
		}
		if err := checkProb("reorders", i, r.Prob); err != nil {
			return err
		}
		if r.MaxDelay < 0 {
			return fmt.Errorf("faults: reorders[%d]: negative max_delay", i)
		}
	}
	for i, d := range p.Duplicates {
		if err := checkWindow("duplicates", i, d.From, d.To); err != nil {
			return err
		}
		if err := checkProb("duplicates", i, d.Prob); err != nil {
			return err
		}
	}
	byNode := map[int][]CrashWindow{}
	for i, c := range p.Crashes {
		if err := checkWindow("crashes", i, c.From, c.To); err != nil {
			return err
		}
		if err := checkNode("crashes", i, c.Node, nodes, false); err != nil {
			return err
		}
		byNode[c.Node] = append(byNode[c.Node], c)
	}
	for node, ws := range byNode {
		sort.Slice(ws, func(i, j int) bool { return ws[i].From < ws[j].From })
		for i := 1; i < len(ws); i++ {
			if ws[i].From < ws[i-1].To {
				return fmt.Errorf("faults: crashes: node %d windows [%g,%g) and [%g,%g) overlap",
					node, ws[i-1].From, ws[i-1].To, ws[i].From, ws[i].To)
			}
		}
	}
	for i, pw := range p.Partitions {
		if err := checkWindow("partitions", i, pw.From, pw.To); err != nil {
			return err
		}
		if len(pw.GroupA) == 0 || len(pw.GroupB) == 0 {
			return fmt.Errorf("faults: partitions[%d]: both groups must be non-empty", i)
		}
		inA := map[int]bool{}
		for _, n := range pw.GroupA {
			if err := checkNode("partitions.group_a", i, n, nodes, false); err != nil {
				return err
			}
			inA[n] = true
		}
		for _, n := range pw.GroupB {
			if err := checkNode("partitions.group_b", i, n, nodes, false); err != nil {
				return err
			}
			if inA[n] {
				return fmt.Errorf("faults: partitions[%d]: node %d in both groups", i, n)
			}
		}
	}
	return nil
}

// ParsePlan decodes and structurally validates a fault-plan JSON
// document. Unknown fields are rejected so schedule typos fail loudly
// instead of silently injecting nothing.
func ParsePlan(data []byte) (*Plan, error) {
	var p Plan
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&p); err != nil {
		return nil, fmt.Errorf("faults: parse plan: %w", err)
	}
	// Trailing garbage after the JSON value is also a malformed plan.
	if dec.More() {
		return nil, fmt.Errorf("faults: parse plan: trailing data after JSON document")
	}
	if err := p.Validate(0); err != nil {
		return nil, err
	}
	return &p, nil
}

// LoadFile reads and parses a fault plan from a JSON file.
func LoadFile(path string) (*Plan, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("faults: %w", err)
	}
	return ParsePlan(data)
}

// RandomPlan generates a seeded random fault plan over [0,horizon)
// virtual seconds: a few loss bursts, a delay spike, possibly a
// reorder and a duplication window, and — when nodes > 0 — possibly
// one crash window and one partition interval over node ids
// [0,nodes). Windows are kept short relative to the horizon so a
// reliable transport's bounded retransmission can always outlast them,
// which is what lets the chaos harness assert liveness. The result
// always validates.
func RandomPlan(seed int64, nodes int, horizon float64) *Plan {
	if horizon <= 0 {
		horizon = 1
	}
	z := (uint64(seed) + 1) * 0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	rng := rand.New(rand.NewSource(int64(z ^ (z >> 27))))
	window := func(maxLen float64) (float64, float64) {
		length := (0.1 + 0.9*rng.Float64()) * maxLen
		from := rng.Float64() * (horizon - length)
		return from, from + length
	}
	p := &Plan{Name: fmt.Sprintf("random-%d", seed), Seed: seed}
	for i, n := 0, 1+rng.Intn(3); i < n; i++ {
		from, to := window(horizon / 3)
		p.Loss = append(p.Loss, LossBurst{From: from, To: to,
			Prob: 0.1 + 0.6*rng.Float64(), Src: AnyNode, Dst: AnyNode})
	}
	if rng.Intn(2) == 0 {
		from, to := window(horizon / 3)
		p.Delays = append(p.Delays, DelaySpike{From: from, To: to,
			Delay: (1 + 19*rng.Float64()) * 1e-3, Jitter: 5e-3 * rng.Float64(),
			Src: AnyNode, Dst: AnyNode})
	}
	if rng.Intn(2) == 0 {
		from, to := window(horizon / 3)
		p.Reorders = append(p.Reorders, ReorderWindow{From: from, To: to,
			Prob: 0.2 + 0.4*rng.Float64(), MaxDelay: 10e-3 * rng.Float64()})
	}
	if rng.Intn(2) == 0 {
		from, to := window(horizon / 3)
		p.Duplicates = append(p.Duplicates, DuplicateWindow{From: from, To: to,
			Prob: 0.1 + 0.4*rng.Float64()})
	}
	if nodes > 0 && rng.Intn(2) == 0 {
		from, to := window(horizon / 5)
		p.Crashes = append(p.Crashes, CrashWindow{Node: rng.Intn(nodes), From: from, To: to})
	}
	if nodes >= 2 && rng.Intn(2) == 0 {
		from, to := window(horizon / 5)
		cut := 1 + rng.Intn(nodes-1)
		pw := PartitionWindow{From: from, To: to}
		for n := 0; n < nodes; n++ {
			if n < cut {
				pw.GroupA = append(pw.GroupA, n)
			} else {
				pw.GroupB = append(pw.GroupB, n)
			}
		}
		p.Partitions = append(p.Partitions, pw)
	}
	return p
}
