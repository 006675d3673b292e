package core

import (
	"fmt"
	"testing"

	"nscc/internal/faults"
	"nscc/internal/netsim"
	"nscc/internal/pvm"
	"nscc/internal/sim"
)

// countBlock is a Block that counts the references a DSM node holds on
// it. It remembers whether a release ever took the count below zero,
// and whether a retain ever revived it after a release to zero: no
// scenario writes a block again once it has been handed back, so
// either is a broken count.
type countBlock struct {
	name              string
	refs              int
	retains, releases int
	negative, revived bool
}

func (b *countBlock) Retain(n int) {
	if b.refs == 0 && b.releases > 0 {
		b.revived = true
	}
	b.refs += n
	b.retains += n
}

func (b *countBlock) Release() {
	b.refs--
	b.releases++
	if b.refs < 0 {
		b.negative = true
	}
}

// blockMachine is a bus machine on the plain transport. With dup set,
// a fault plan delivers every frame twice.
func blockMachine(seed int64, dup bool) (*sim.Engine, *pvm.Machine) {
	eng := sim.NewEngine(seed)
	var net netsim.Fabric = netsim.New(eng, netsim.DefaultConfig())
	if dup {
		net = faults.Wrap(net, &faults.Plan{Name: "every frame twice",
			Duplicates: []faults.DuplicateWindow{{From: 0, To: 3600, Prob: 1}}})
	}
	return eng, pvm.NewMachine(eng, net, pvm.DefaultConfig())
}

// doneValue is the plain value every scenario's writer writes last:
// not a Block, so it replaces the last block everywhere and every
// reference can settle.
const doneValue = "done"

// readUntilDone has a reader Global_Read loc until it returns doneValue,
// written at iteration last. Each block it returns must still be held
// when the read returns and again just before the reader's next DSM
// call, after a pause in which newer updates can land in its mailbox.
func readUntilDone(t *testing.T, task *pvm.Task, n *Node, loc *Location, last int64, pause sim.Duration) {
	for cur := int64(0); ; cur++ {
		age := cur % 3
		if cur > last {
			cur, age = last, 0
		}
		u := n.GlobalRead(loc, cur, age)
		if u.Value == doneValue {
			return
		}
		b, ok := u.Value.(*countBlock)
		if ok && b.refs <= 0 {
			t.Errorf("task %d: GlobalRead returned %s with %d references", task.ID(), b.name, b.refs)
		}
		task.Compute(pause)
		if ok && b.refs <= 0 {
			t.Errorf("task %d: %s released before the reader's next DSM call", task.ID(), b.name)
		}
	}
}

// blockScenario runs one DSM exchange of countBlocks, on a network that
// delivers every frame twice when dup is set, and returns every block
// it wrote, once the run has ended.
type blockScenario func(t *testing.T, dup bool) []*countBlock

// fanOutScenario has one writer publish a block per iteration to three
// readers, republishing the current block every third iteration: each
// new write replaces every buffer entry of the one before. It also
// writes each block to a location nobody reads, where its own buffer
// entry is the block's only holder across a republish.
func fanOutScenario(t *testing.T, dup bool) []*countBlock {
	eng, m := blockMachine(3, dup)
	defer eng.Close()
	loc := &Location{ID: 1, Name: "x", Writer: 3, Readers: []int{0, 1, 2}, Size: 512}
	solo := &Location{ID: 2, Name: "solo", Writer: 3, Size: 512}
	const last = 24
	var blocks []*countBlock
	for r := 0; r < 3; r++ {
		pause := sim.Duration(r+1) * 700 * sim.Microsecond
		m.Spawn("reader", func(task *pvm.Task) {
			n := NewNode(task, Options{})
			n.Register(loc)
			readUntilDone(t, task, n, loc, last, pause)
		})
	}
	m.Spawn("writer", func(task *pvm.Task) {
		n := NewNode(task, Options{})
		n.Register(loc)
		n.Register(solo)
		var cur, own *countBlock
		for i := int64(0); i < last; i++ {
			task.Compute(sim.Millisecond)
			if cur == nil || i%3 != 2 {
				cur = &countBlock{name: fmt.Sprintf("block %d", i)}
				own = &countBlock{name: fmt.Sprintf("solo block %d", i)}
				blocks = append(blocks, cur, own)
			}
			n.Write(loc, i, cur)
			n.Write(solo, i, own)
		}
		n.Write(loc, last, doneValue)
		n.Write(solo, last, doneValue)
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	return blocks
}

// requestScenario has a request-based reader solicit a value before
// its first write: the writer re-sends its buffered block, and the
// reader drops whichever copy of it lands second as a duplicate. When
// the network duplicates the solicitation, the writer answers both.
func requestScenario(t *testing.T, dup bool) []*countBlock {
	eng, m := blockMachine(1, dup)
	defer eng.Close()
	loc := &Location{ID: 1, Name: "x", Writer: 1, Readers: []int{0}, Size: 128}
	b0 := &countBlock{name: "block 0"}
	var sent int64
	m.Spawn("reader", func(task *pvm.Task) {
		n := NewNode(task, Options{RequestRead: true})
		n.Register(loc)
		if n.GlobalRead(loc, 0, 0).Value != b0 {
			t.Error("the solicited read did not return block 0")
		}
		// Read again only once the plain value has arrived, so the read
		// does not block and solicit a second time.
		task.Compute(40 * sim.Millisecond)
		if n.GlobalRead(loc, 1, 0).Value != doneValue {
			t.Error("the final read did not return the plain value")
		}
		if n.Stats().Requests != 1 {
			t.Errorf("%d solicitations, want 1", n.Stats().Requests)
		}
	})
	m.Spawn("writer", func(task *pvm.Task) {
		n := NewNode(task, Options{})
		n.Register(loc)
		task.Compute(sim.Millisecond)
		n.Write(loc, 0, b0)
		for i := 0; i < 20; i++ { // answer the solicitation
			task.Compute(sim.Millisecond)
			n.Poll()
		}
		n.Write(loc, 1, doneValue)
		sent = n.Stats().UpdatesSent
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	want := int64(3)
	if dup {
		want = 4
	}
	if sent != want {
		t.Errorf("the writer sent %d updates, want %d: block 0, a re-send per solicitation and the plain value", sent, want)
	}
	return []*countBlock{b0}
}

// outboxScenario has a windowed, coalescing writer publish faster than
// the wire drains: a block queued in the outbox is coalesced away by
// the next, and the survivors are flushed as the window frees.
func outboxScenario(t *testing.T, dup bool) []*countBlock {
	eng, m := blockMachine(2, dup)
	defer eng.Close()
	loc := &Location{ID: 1, Name: "x", Writer: 2, Readers: []int{0, 1}, Size: 4096}
	const last = 30
	var blocks []*countBlock
	var st Stats
	for r := 0; r < 2; r++ {
		m.Spawn("reader", func(task *pvm.Task) {
			n := NewNode(task, Options{})
			n.Register(loc)
			readUntilDone(t, task, n, loc, last, 2*sim.Millisecond)
		})
	}
	m.Spawn("writer", func(task *pvm.Task) {
		n := NewNode(task, Options{Window: 1, Coalesce: true})
		n.Register(loc)
		for i := int64(0); i < last; i++ {
			task.Compute(300 * sim.Microsecond) // writes faster than the wire
			n.Flush()
			b := &countBlock{name: fmt.Sprintf("block %d", i)}
			blocks = append(blocks, b)
			n.Write(loc, i, b)
		}
		n.Write(loc, last, doneValue)
		for n.Stats().UpdatesSent < n.Stats().Writes-n.Stats().Coalesced {
			task.Compute(sim.Millisecond)
			n.Flush()
		}
		st = n.Stats()
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	// A block coalesced away was held by the writer's buffer and the
	// outbox only; a flushed one also by each delivery of its update,
	// which the network makes twice per reader when dup is set.
	deliveries := len(loc.Readers)
	if dup {
		deliveries *= 2
	}
	var dropped, flushed int
	for _, b := range blocks {
		switch b.retains {
		case 2:
			dropped++
		case 2 + deliveries:
			flushed++
		}
	}
	if st.Coalesced == 0 || dropped == 0 || flushed == 0 {
		t.Errorf("%d coalesced writes, %d blocks coalesced away, %d flushed from the outbox; want each > 0",
			st.Coalesced, dropped, flushed)
	}
	return blocks
}

// TestBlockReleaseRule runs each scenario on a clean network and on one
// that delivers every frame twice, and checks that the nodes balanced
// every reference they took: each block was retained, every Retain is
// matched by Release calls by the end of the run, no count went below
// zero, and no block was retained again after its last release (which
// hands it back for refilling). The duplicated deliveries must each
// have taken a reference of their own.
func TestBlockReleaseRule(t *testing.T) {
	for name, run := range map[string]blockScenario{
		"fan-out":      fanOutScenario,
		"request-read": requestScenario,
		"outbox":       outboxScenario,
	} {
		t.Run(name, func(t *testing.T) {
			var retains [2]int
			for i, dup := range []bool{false, true} {
				for _, b := range run(t, dup) {
					retains[i] += b.retains
					switch {
					case b.negative:
						t.Errorf("dup %v, %s: released below zero", dup, b.name)
					case b.revived:
						t.Errorf("dup %v, %s: retained again after its release to zero", dup, b.name)
					case b.retains == 0:
						t.Errorf("dup %v, %s: never retained", dup, b.name)
					case b.refs != 0 || b.releases != b.retains:
						t.Errorf("dup %v, %s: %d retains, %d releases, %d references left",
							dup, b.name, b.retains, b.releases, b.refs)
					}
				}
			}
			if retains[1] <= retains[0] {
				t.Errorf("%d retains with every frame duplicated, %d without; want more", retains[1], retains[0])
			}
		})
	}
}

// TestApplyReleasesDroppedAndReplaced drives apply directly on a node:
// a fresh update's reference moves into the buffer, a stale or
// duplicate update releases its own, and a fresher update releases the
// value it replaces.
func TestApplyReleasesDroppedAndReplaced(t *testing.T) {
	n := &Node{}
	a, b, c := &countBlock{name: "a"}, &countBlock{name: "b"}, &countBlock{name: "c"}
	deliver := func(blk *countBlock, iter int64) {
		blk.Retain(1) // the undelivered update's reference
		n.apply(&updateMsg{Loc: 1, Iter: iter, Value: blk})
	}
	deliver(a, 5)
	deliver(b, 3) // stale
	deliver(a, 5) // duplicate
	if a.refs != 1 || b.refs != 0 {
		t.Fatalf("after a stale and a duplicate update: a holds %d, b %d; want 1 and 0", a.refs, b.refs)
	}
	deliver(c, 6)
	if a.refs != 0 || c.refs != 1 || buffered(n, 1).Value != c {
		t.Fatalf("after a fresher update: a holds %d, c %d, buffer %v; want 0, 1 and c", a.refs, c.refs, buffered(n, 1).Value)
	}
	for _, blk := range []*countBlock{a, b, c} {
		if blk.negative {
			t.Errorf("%s released below zero", blk.name)
		}
	}
}
