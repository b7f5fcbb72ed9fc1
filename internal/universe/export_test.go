package universe

import (
	"slices"

	"hpl/internal/trace"
)

// ReferencePartition is the string-key partition builder the
// projection-hash tables replaced, kept as the oracle they are
// differenced against. Every member is listed under its ProjectionKey
// and, on a quotient, under the key of each renaming σ·y rebuilt event
// by event; classes are numbered by first occurrence. byKey maps each
// projection key to its class.
func ReferencePartition(u *Universe, p trace.ProcSet) (pt *Partition, byKey map[string]int32) {
	n := u.Len()
	pt = &Partition{set: p, classID: make([]int32, n)}
	byKey = make(map[string]int32)
	var arena trace.Arena
	for i := 0; i < n; i++ {
		c := u.At(i)
		keys := []string{c.ProjectionKey(p)}
		if u.sym != nil {
			for _, sigma := range u.sym.elements() {
				rc := trace.Empty()
				for _, e := range c.Events() {
					rc = arena.Extend(rc, renameEvent(e, sigma))
				}
				if k := rc.ProjectionKey(p); !slices.Contains(keys, k) {
					keys = append(keys, k)
				}
			}
		}
		for j, k := range keys {
			cl, ok := byKey[k]
			if !ok {
				cl = int32(len(pt.members))
				byKey[k] = cl
				pt.members = append(pt.members, nil)
			}
			if j == 0 {
				pt.classID[i] = cl
			}
			pt.members[cl] = append(pt.members[cl], i)
		}
	}
	return pt, byKey
}
