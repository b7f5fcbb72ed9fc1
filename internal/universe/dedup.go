package universe

import (
	"errors"
	"fmt"

	"hpl/internal/trace"
)

// ErrHashCollision reports two distinct computations with equal 128-bit
// canonical hashes, or two distinct projections with equal projection
// hashes, detected under WithHashVerify.
// It has never been observed; the option exists so that debug runs can
// prove that for their workload.
var ErrHashCollision = errors.New("universe: 128-bit canonical hash collision")

// hashTable is an open-addressing (linear probe, power-of-two) set of
// (hash, length) entries — the engine's dedup structure. It retains no
// string keys: a computation is identified by its 128-bit canonical
// hash plus its event count. Two entries may share a full 128-bit hash
// only when their lengths differ (then they are certainly distinct
// computations and both get slots); equal hash and equal length is
// treated as the same computation. Under verify, the claiming
// computation is retained per slot and every such hit is checked
// against the full canonical string keys, turning the ~2^-128
// assumption into a hard error if it ever fails.
//
// hashTable is not goroutine-safe; the engine wraps one per locked
// shard.
type hashTable struct {
	hashes []trace.Hash128
	// lens holds the entry's event count + 1; 0 marks an empty slot.
	lens []int32
	// comps retains the first claimant per slot; allocated only under
	// verify.
	comps  []*trace.Computation
	n      int
	verify bool
}

const hashTableMinCap = 64

func newHashTable(verify bool) hashTable {
	t := hashTable{verify: verify}
	t.alloc(hashTableMinCap)
	return t
}

func (t *hashTable) alloc(capacity int) {
	t.hashes = make([]trace.Hash128, capacity)
	t.lens = make([]int32, capacity)
	if t.verify {
		t.comps = make([]*trace.Computation, capacity)
	} else {
		t.comps = nil
	}
}

// insert claims (h, ln) in the table, reporting whether this call was
// the first to see it. c is consulted (and retained) only under verify.
func (t *hashTable) insert(h trace.Hash128, ln int, c *trace.Computation) (bool, error) {
	if (t.n+1)*4 > len(t.lens)*3 {
		t.grow()
	}
	mask := len(t.lens) - 1
	i := int(h.Lo) & mask
	for {
		switch {
		case t.lens[i] == 0:
			t.hashes[i] = h
			t.lens[i] = int32(ln) + 1
			if t.verify {
				t.comps[i] = c
			}
			t.n++
			return true, nil
		case t.hashes[i] == h && int(t.lens[i]) == ln+1:
			if t.verify && t.comps[i].Key() != c.Key() {
				return false, fmt.Errorf("%w: %q vs %q", ErrHashCollision, t.comps[i].Key(), c.Key())
			}
			return false, nil
		}
		// Occupied by a different hash — or by the same 128-bit hash at
		// a different length, which is a genuine collision between
		// certainly-distinct computations: probe on so both get slots.
		i = (i + 1) & mask
	}
}

func (t *hashTable) grow() {
	oldH, oldL, oldC := t.hashes, t.lens, t.comps
	t.alloc(2 * len(oldL))
	mask := len(t.lens) - 1
	for j, ln := range oldL {
		if ln == 0 {
			continue
		}
		i := int(oldH[j].Lo) & mask
		for t.lens[i] != 0 {
			i = (i + 1) & mask
		}
		t.hashes[i] = oldH[j]
		t.lens[i] = ln
		if t.verify {
			t.comps[i] = oldC[j]
		}
	}
}
