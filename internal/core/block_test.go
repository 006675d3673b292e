package core

import (
	"fmt"
	"testing"

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

// blockMachine is a bus machine whose pvm pools or not.
func blockMachine(seed int64, pooling bool) (*sim.Engine, *pvm.Machine) {
	eng := sim.NewEngine(seed)
	cfg := pvm.DefaultConfig()
	cfg.Pooling = pooling
	return eng, pvm.NewMachine(eng, netsim.New(eng, netsim.DefaultConfig()), cfg)
}

// doneValue is the plain value every scenario's writer writes last:
// not a Block, so it replaces the last block everywhere and every
// reference can settle.
const doneValue = "done"

// readUntilDone has a reader Global_Read loc until it returns doneValue,
// written at iteration last. With pooling, each block it returns must
// still be held when the read returns and again just before the
// reader's next DSM call, after a pause in which newer updates can land
// in its mailbox.
func readUntilDone(t *testing.T, task *pvm.Task, n *Node, loc *Location, last int64, pause sim.Duration) {
	pooling := task.Pooling()
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
		check := ok && pooling
		if check && b.refs <= 0 {
			t.Errorf("task %d: GlobalRead returned %s with %d references", task.ID(), b.name, b.refs)
		}
		task.Compute(pause)
		if check && b.refs <= 0 {
			t.Errorf("task %d: %s released before the reader's next DSM call", task.ID(), b.name)
		}
	}
}

// blockScenario runs one DSM exchange of countBlocks and returns every
// block it wrote, once the run has ended.
type blockScenario func(t *testing.T, pooling bool) []*countBlock

// fanOutScenario has one writer publish a block per iteration to three
// readers, republishing the current block every third iteration: each
// new write replaces every buffer entry of the one before. It also
// writes each block to a location nobody reads, where its own buffer
// entry is the block's only holder across a republish.
func fanOutScenario(t *testing.T, pooling bool) []*countBlock {
	eng, m := blockMachine(3, pooling)
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
// reader drops whichever copy of it lands second as a duplicate.
func requestScenario(t *testing.T, pooling bool) []*countBlock {
	eng, m := blockMachine(1, pooling)
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
	if sent != 3 {
		t.Errorf("the writer sent %d updates, want 3: block 0, its re-send and the plain value", sent)
	}
	return []*countBlock{b0}
}

// outboxScenario has a windowed, coalescing writer publish faster than
// the wire drains: a block queued in the outbox is coalesced away by
// the next, and the survivors are flushed as the window frees.
func outboxScenario(t *testing.T, pooling bool) []*countBlock {
	eng, m := blockMachine(2, pooling)
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
	// outbox only; a flushed one also by each reader's update.
	var dropped, flushed int
	for _, b := range blocks {
		switch b.retains {
		case 2:
			dropped++
		case 2 + len(loc.Readers):
			flushed++
		}
	}
	if pooling && (st.Coalesced == 0 || dropped == 0 || flushed == 0) {
		t.Errorf("%d coalesced writes, %d blocks coalesced away, %d flushed from the outbox; want each > 0",
			st.Coalesced, dropped, flushed)
	}
	return blocks
}

// TestBlockReleaseRule runs each scenario with pooling and checks that
// the nodes balanced every reference they took: each block was
// retained, every Retain is matched by Release calls by the end of the
// run, and no count went below zero. Without pooling no node may call
// either method.
func TestBlockReleaseRule(t *testing.T) {
	for name, run := range map[string]blockScenario{
		"fan-out":      fanOutScenario,
		"request-read": requestScenario,
		"outbox":       outboxScenario,
	} {
		t.Run(name, func(t *testing.T) {
			for _, b := range run(t, true) {
				switch {
				case b.negative:
					t.Errorf("%s: released below zero", b.name)
				case b.revived:
					t.Errorf("%s: retained again after its release to zero", b.name)
				case b.retains == 0:
					t.Errorf("%s: never retained", b.name)
				case b.refs != 0 || b.releases != b.retains:
					t.Errorf("%s: %d retains, %d releases, %d references left", b.name, b.retains, b.releases, b.refs)
				}
			}
			for _, b := range run(t, false) {
				if b.retains != 0 || b.releases != 0 {
					t.Errorf("unpooled, %s: %d retains, %d releases, want none", b.name, b.retains, b.releases)
				}
			}
		})
	}
}

// TestApplyReleasesDroppedAndReplaced drives apply directly on a
// pooling node: a fresh update's reference moves into the buffer, a
// stale or duplicate update releases its own, and a fresher update
// releases the value it replaces.
func TestApplyReleasesDroppedAndReplaced(t *testing.T) {
	n := &Node{buf: map[int]Update{}, pooling: true}
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
	if a.refs != 0 || c.refs != 1 || n.buf[1].Value != c {
		t.Fatalf("after a fresher update: a holds %d, c %d, buffer %v; want 0, 1 and c", a.refs, c.refs, n.buf[1].Value)
	}
	for _, blk := range []*countBlock{a, b, c} {
		if blk.negative {
			t.Errorf("%s released below zero", blk.name)
		}
	}
}
