package faults

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestValidateErrors is the validation table: every malformed schedule
// the loader must reject, with the substring its error should carry.
func TestValidateErrors(t *testing.T) {
	cases := []struct {
		name  string
		plan  Plan
		nodes int
		want  string // "" = must validate
	}{
		{name: "empty plan ok", plan: Plan{}},
		{
			name: "negative start time",
			plan: Plan{Loss: []LossBurst{{From: -1, To: 1, Prob: 0.5, Src: AnyNode, Dst: AnyNode}}},
			want: "negative start time",
		},
		{
			name: "inverted window",
			plan: Plan{Delays: []DelaySpike{{From: 2, To: 1, Delay: 0.001, Src: AnyNode, Dst: AnyNode}}},
			want: "empty or inverted",
		},
		{
			name: "empty window",
			plan: Plan{Duplicates: []DuplicateWindow{{From: 1, To: 1, Prob: 0.5}}},
			want: "empty or inverted",
		},
		{
			name: "probability above one",
			plan: Plan{Loss: []LossBurst{{From: 0, To: 1, Prob: 1.5, Src: AnyNode, Dst: AnyNode}}},
			want: "outside [0,1]",
		},
		{
			name: "negative probability",
			plan: Plan{Reorders: []ReorderWindow{{From: 0, To: 1, Prob: -0.1, MaxDelay: 0.01}}},
			want: "outside [0,1]",
		},
		{
			name: "negative delay",
			plan: Plan{Delays: []DelaySpike{{From: 0, To: 1, Delay: -0.001, Src: AnyNode, Dst: AnyNode}}},
			want: "negative delay",
		},
		{
			name: "negative reorder max delay",
			plan: Plan{Reorders: []ReorderWindow{{From: 0, To: 1, Prob: 0.5, MaxDelay: -1}}},
			want: "negative max_delay",
		},
		{
			name:  "unknown loss src node",
			plan:  Plan{Loss: []LossBurst{{From: 0, To: 1, Prob: 0.5, Src: 7, Dst: AnyNode}}},
			nodes: 4,
			want:  "unknown node id 7",
		},
		{
			name:  "unknown crash node",
			plan:  Plan{Crashes: []CrashWindow{{Node: 9, From: 0, To: 1}}},
			nodes: 4,
			want:  "unknown node id 9",
		},
		{
			name: "negative crash node",
			plan: Plan{Crashes: []CrashWindow{{Node: -2, From: 0, To: 1}}},
			want: "invalid node id",
		},
		{
			name: "overlapping crash windows same node",
			plan: Plan{Crashes: []CrashWindow{
				{Node: 1, From: 0, To: 2},
				{Node: 1, From: 1.5, To: 3},
			}},
			want: "overlap",
		},
		{
			name: "overlapping crash windows different nodes ok",
			plan: Plan{Crashes: []CrashWindow{
				{Node: 0, From: 0, To: 2},
				{Node: 1, From: 1, To: 3},
			}},
		},
		{
			name: "abutting crash windows ok",
			plan: Plan{Crashes: []CrashWindow{
				{Node: 2, From: 0, To: 1},
				{Node: 2, From: 1, To: 2},
			}},
		},
		{
			name: "partition with empty group",
			plan: Plan{Partitions: []PartitionWindow{{From: 0, To: 1, GroupA: []int{0}}}},
			want: "non-empty",
		},
		{
			name: "partition node in both groups",
			plan: Plan{Partitions: []PartitionWindow{
				{From: 0, To: 1, GroupA: []int{0, 1}, GroupB: []int{1}},
			}},
			want: "in both groups",
		},
		{
			name:  "partition unknown node",
			plan:  Plan{Partitions: []PartitionWindow{{From: 0, To: 1, GroupA: []int{0}, GroupB: []int{5}}}},
			nodes: 4,
			want:  "unknown node id 5",
		},
		{
			name: "structural check ignores node bounds when nodes=0",
			plan: Plan{Crashes: []CrashWindow{{Node: 99, From: 0, To: 1}}},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.plan.Validate(tc.nodes)
			if tc.want == "" {
				if err != nil {
					t.Fatalf("Validate(%d) = %v, want nil", tc.nodes, err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Validate(%d) = %v, want error containing %q", tc.nodes, err, tc.want)
			}
		})
	}
}

func TestParsePlan(t *testing.T) {
	t.Run("defaults and fields", func(t *testing.T) {
		p, err := ParsePlan([]byte(`{
			"name": "lossy",
			"seed": 3,
			"loss": [{"from": 0, "to": 2, "prob": 0.3}],
			"delays": [{"from": 0.5, "to": 1, "delay": 0.002, "jitter": 0.001, "src": 1, "dst": 0}],
			"crashes": [{"node": 1, "from": 0.2, "to": 0.4}],
			"partitions": [{"from": 1, "to": 1.5, "group_a": [0], "group_b": [1, 2]}]
		}`))
		if err != nil {
			t.Fatal(err)
		}
		if p.Name != "lossy" || p.Seed != 3 {
			t.Fatalf("header fields wrong: %+v", p)
		}
		// Omitted src/dst must default to the wildcard, not node 0.
		if p.Loss[0].Src != AnyNode || p.Loss[0].Dst != AnyNode {
			t.Fatalf("omitted loss src/dst = (%d,%d), want AnyNode", p.Loss[0].Src, p.Loss[0].Dst)
		}
		if p.Delays[0].Src != 1 || p.Delays[0].Dst != 0 {
			t.Fatalf("explicit delay src/dst not preserved: %+v", p.Delays[0])
		}
	})
	t.Run("unknown field rejected", func(t *testing.T) {
		if _, err := ParsePlan([]byte(`{"loss": [{"from": 0, "to": 1, "porb": 0.3}]}`)); err == nil {
			t.Fatal("typoed field accepted")
		}
	})
	t.Run("trailing garbage rejected", func(t *testing.T) {
		if _, err := ParsePlan([]byte(`{} trailing`)); err == nil {
			t.Fatal("trailing data accepted")
		}
	})
	t.Run("structural validation applied", func(t *testing.T) {
		_, err := ParsePlan([]byte(`{"loss": [{"from": -5, "to": 1, "prob": 0.3}]}`))
		if err == nil || !strings.Contains(err.Error(), "negative start time") {
			t.Fatalf("invalid plan accepted: %v", err)
		}
	})
	t.Run("not json", func(t *testing.T) {
		if _, err := ParsePlan([]byte(`Ethernet weather: cloudy`)); err == nil {
			t.Fatal("non-JSON accepted")
		}
	})
}

func TestLoadFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "plan.json")
	if err := os.WriteFile(path, []byte(`{"name":"f","loss":[{"from":0,"to":1,"prob":0.2}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	p, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if p.Name != "f" || len(p.Loss) != 1 {
		t.Fatalf("loaded %+v", p)
	}
	if _, err := LoadFile(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Fatal("missing file loaded")
	}
}

func TestPlanDrops(t *testing.T) {
	var nilPlan *Plan
	keeps := []*Plan{
		nilPlan,
		{Loss: []LossBurst{{From: 0, To: 1, Prob: 0}}},
		{
			Delays:     []DelaySpike{{From: 0, To: 1, Delay: 0.01}},
			Reorders:   []ReorderWindow{{From: 0, To: 1, Prob: 0.5, MaxDelay: 0.01}},
			Duplicates: []DuplicateWindow{{From: 0, To: 1, Prob: 0.5}},
		},
	}
	for i, p := range keeps {
		if p.Drops() {
			t.Errorf("plan %d drops nothing, but Drops reported true", i)
		}
	}
	drops := []*Plan{
		{Loss: []LossBurst{{From: 0, To: 1, Prob: 0}, {From: 1, To: 2, Prob: 0.1}}},
		{Crashes: []CrashWindow{{Node: 0, From: 0, To: 1}}},
		{Partitions: []PartitionWindow{{From: 0, To: 1, GroupA: []int{0}, GroupB: []int{1}}}},
	}
	for i, p := range drops {
		if !p.Drops() {
			t.Errorf("plan %d can drop messages, but Drops reported false", i)
		}
	}
}

func TestPlanRepeats(t *testing.T) {
	var nilPlan *Plan
	for i, c := range []struct {
		p    *Plan
		want bool
	}{
		{nilPlan, false},
		{&Plan{Duplicates: []DuplicateWindow{{From: 0, To: 1, Prob: 0}}}, false},
		{&Plan{
			Loss:     []LossBurst{{From: 0, To: 1, Prob: 0.5}},
			Reorders: []ReorderWindow{{From: 0, To: 1, Prob: 0.5, MaxDelay: 0.01}},
		}, false},
		{&Plan{Duplicates: []DuplicateWindow{{From: 0, To: 1, Prob: 0}, {From: 1, To: 2, Prob: 0.2}}}, true},
	} {
		if got := c.p.Repeats(); got != c.want {
			t.Errorf("plan %d: Repeats reported %v, want %v", i, got, c.want)
		}
	}
}

// TestRandomPlanAlwaysValidates is the generator's contract: whatever
// the seed, the plan it emits passes full validation against the node
// count it was generated for.
func TestRandomPlanAlwaysValidates(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		for _, nodes := range []int{0, 1, 2, 4, 16} {
			p := RandomPlan(seed, nodes, 2.0)
			if err := p.Validate(nodes); err != nil {
				t.Fatalf("RandomPlan(%d, %d, 2.0) invalid: %v", seed, nodes, err)
			}
			if len(p.Loss)+len(p.Delays)+len(p.Reorders)+len(p.Duplicates)+len(p.Crashes)+len(p.Partitions) == 0 {
				t.Fatalf("RandomPlan(%d, %d, 2.0) scheduled nothing", seed, nodes)
			}
		}
	}
	// Same seed, same plan; different seed, different name at least.
	a, b := RandomPlan(7, 4, 2.0), RandomPlan(7, 4, 2.0)
	if a.Name != b.Name || len(a.Loss) != len(b.Loss) || a.Loss[0] != b.Loss[0] {
		t.Fatal("RandomPlan not deterministic in its seed")
	}
}
