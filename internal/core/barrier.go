package core

import "nscc/internal/pvm"

// Barrier tags, disjoint from the DSM tags.
const (
	barrierArriveTag  = UpdateTag + 8
	barrierReleaseTag = UpdateTag + 9
	barrierMsgSize    = 16
)

// MsgBarrier is a coordinator-based message barrier over PVM: members
// send an arrival message to the first member, which releases everyone
// once all have arrived (2(P-1) small messages per episode). This is the
// synchronization overhead the synchronous program pays every iteration
// and that Global_Read with age=0 eliminates (§5: "this setting removes
// the barrier synchronization overhead of the synchronous program but
// does not exploit any asynchrony").
type MsgBarrier struct {
	members []int // task ids; members[0] coordinates
}

// NewMsgBarrier creates a barrier among the given task ids.
func NewMsgBarrier(members []int) *MsgBarrier {
	if len(members) == 0 {
		panic("core: empty barrier membership")
	}
	ms := make([]int, len(members))
	copy(ms, members)
	return &MsgBarrier{members: ms}
}

// Wait blocks t until every member has called Wait for this episode.
func (b *MsgBarrier) Wait(t *pvm.Task) { b.Decide(t, false) }

// Decide is Wait whose release carries a verdict: the coordinator
// (members[0]) passes its verdict, every member returns it, and the
// other members' verdicts are ignored. So a run whose coordinator
// decides when to stop stops every member in the same episode. The
// coordinator's verdict is read before it collects the arrivals.
func (b *MsgBarrier) Decide(t *pvm.Task, verdict bool) bool {
	if len(b.members) == 1 {
		return verdict
	}
	coord := b.members[0]
	if t.ID() == coord {
		for i := 0; i < len(b.members)-1; i++ {
			t.Recv(pvm.Any, barrierArriveTag)
		}
		t.Multicast(b.members[1:], barrierReleaseTag, barrierMsgSize, verdict, nil)
		return verdict
	}
	t.Send(coord, barrierArriveTag, barrierMsgSize, nil)
	return t.Recv(coord, barrierReleaseTag).Data.(bool)
}
