package universe

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc64"
	"io"
	"math"
	"sort"

	"hpl/internal/obs"
	"hpl/internal/trace"
)

// Snapshot codec: a versioned, length-prefixed binary dump of an
// enumerated universe — members, interned state-vector table, built
// partition tables, and the transition graph — as a handful of flat
// arrays, so a process restart (or a bound increase via Extend) loads
// in milliseconds instead of re-enumerating.
//
// File layout:
//
//	magic "HPLSNP" | version (1 byte) | payload length (u64 LE)
//	| payload | crc64-ECMA of payload (u64 LE)
//
// The checksum is verified before any parsing, so every decode error
// past the header is either a truncated file or a deliberate format
// violation, never a silent misread. Payload sections, in order, all
// integers uvarint unless noted:
//
//	digest   — length-prefixed cache-key string (UniverseSpec digest)
//	bound    — the MaxEvents the universe was enumerated under
//	strings  — count, then length-prefixed bytes; every identifier and
//	           local state below is a reference into this table
//	procs    — count, then string refs (the process set D)
//	states   — count, then per vector: element count + string refs.
//	           Vectors are renumbered by first occurrence in member
//	           order before writing, so the encoding is byte-identical
//	           no matter what parallelism enumerated the universe.
//	members  — count, then per member in canonical (length, hash)
//	           order: parent member index +1 (0 for the null
//	           computation), the last event in the trace binary event
//	           encoding (absent for null), and the state-vector ref.
//	           Storing one event per member is the prefix tree
//	           flattened: the loader rebuilds each member in O(1) from
//	           its already-loaded parent, hashes re-derived as it goes.
//	trans    — flag byte; when 1, per member: parent index +1 and edge
//	           label proc ref +1. Only the reverse relation is stored;
//	           the CSR forward adjacency is a counting sort at load.
//	parts    — count, then per built partition table: proc-set refs,
//	           class count, and per-member class identifiers. The
//	           projection-hash index is NOT stored: the loader rebuilds
//	           it from one member per class (every class must have one).
//	symmetry — version 2 (symmetry quotients) only: the group's class
//	           count, then per class its size and proc string refs,
//	           then one orbit size per member. Quotients always write
//	           zero partition tables (their overlapping twisted class
//	           listings are rebuilt on demand instead).
var (
	// ErrSnapshotFormat reports input that is not a universe snapshot.
	ErrSnapshotFormat = errors.New("universe: not a universe snapshot")
	// ErrSnapshotVersion reports a snapshot written by an incompatible
	// codec version.
	ErrSnapshotVersion = errors.New("universe: unsupported snapshot version")
	// ErrSnapshotTruncated reports a snapshot that ends mid-structure.
	ErrSnapshotTruncated = errors.New("universe: truncated snapshot")
	// ErrSnapshotCorrupt reports a snapshot whose bytes fail the
	// checksum or decode to out-of-range structure.
	ErrSnapshotCorrupt = errors.New("universe: corrupt snapshot")
)

const (
	snapshotMagic = "HPLSNP"
	// snapshotVersion is the codec for full universes; symmetry
	// quotients (WithSymmetry) write snapshotVersionSym, which appends a
	// symmetry section — the group's classes and the per-member orbit
	// sizes — after the partitions section. Full universes keep writing
	// version 1 byte-identically, so pre-symmetry snapshots and readers
	// interoperate with this build on everything but quotients.
	snapshotVersion    = 1
	snapshotVersionSym = 2
)

var snapshotCRC = crc64.MakeTable(crc64.ECMA)

// WriteSnapshot writes the universe and its digest key to w. The
// universe must come from EnumerateWith, Extend, or ReadSnapshot —
// snapshots persist enumeration state (canonical order, state vectors)
// that hand-built universes do not carry. Partition tables and the
// transition graph are included exactly when already built; the output
// is byte-deterministic for a given universe and set of built tables.
func WriteSnapshot(w io.Writer, u *Universe, digest string) error {
	if u.maxEvents < 0 || u.states == nil || len(u.memberSV) != u.Len() || !u.sorted {
		return fmt.Errorf("universe: snapshot requires an enumerated universe")
	}
	sp := u.tr.Start("snapshot.encode")
	defer func() { phaseSnapEncode.ObserveDuration(sp.End()) }()
	if u.sym != nil && len(u.orbitSize) != u.Len() {
		return fmt.Errorf("universe: snapshot requires orbit sizes for every member of a quotient universe")
	}
	tab := trace.NewStringTable()
	var body []byte

	// Processes.
	procs := u.all.IDs()
	body = binary.AppendUvarint(body, uint64(len(procs)))
	for _, p := range procs {
		body = binary.AppendUvarint(body, uint64(tab.Ref(string(p))))
	}

	// State vectors, renumbered by first occurrence in member order:
	// interned identifiers depend on enumeration scheduling, the
	// renumbering does not. Vectors never referenced by a member are
	// dropped.
	renum := make(map[int32]uint64)
	var order []int32
	newSV := make([]uint64, u.Len())
	for i, sv := range u.memberSV {
		id, ok := renum[sv]
		if !ok {
			id = uint64(len(order))
			renum[sv] = id
			order = append(order, sv)
		}
		newSV[i] = id
	}
	body = binary.AppendUvarint(body, uint64(len(order)))
	for _, old := range order {
		v := u.states.vec(old)
		body = binary.AppendUvarint(body, uint64(len(v)))
		for _, s := range v {
			body = binary.AppendUvarint(body, uint64(tab.Ref(s)))
		}
	}

	// Members: parent index + last event + state vector.
	body = binary.AppendUvarint(body, uint64(u.Len()))
	for i := 0; i < u.Len(); i++ {
		c := u.At(i)
		if c.Len() == 0 {
			body = binary.AppendUvarint(body, 0)
		} else {
			pi := u.IndexOf(c.Parent())
			if pi < 0 || pi >= i {
				return fmt.Errorf("universe: snapshot: member %d's prefix is not an earlier member (universe not prefix closed)", i)
			}
			body = binary.AppendUvarint(body, uint64(pi)+1)
			last, _ := c.Last()
			body = trace.AppendEventBinary(body, last, tab)
		}
		body = binary.AppendUvarint(body, newSV[i])
	}

	// Transition graph, if built: the reverse relation only.
	if t := u.transitionsIfBuilt(); t != nil {
		procPos := make(map[trace.ProcID]uint64, len(procs))
		for i, p := range procs {
			procPos[p] = uint64(i)
		}
		body = append(body, 1)
		for j := range t.parent {
			body = binary.AppendUvarint(body, uint64(t.parent[j])+1)
			if lab := t.label[j]; lab < 0 {
				body = binary.AppendUvarint(body, 0)
			} else {
				body = binary.AppendUvarint(body, procPos[t.procs[lab]]+1)
			}
		}
	} else {
		body = append(body, 0)
	}

	// Built partition tables, ordered by process-set key: sync.Map
	// iteration order must not leak into the bytes. Quotient partitions
	// are never persisted: their overlapping "twisted" class listings
	// cannot be reconstructed from classID alone (the loader's hash
	// index assumes one projection per class), so quotient loads rebuild
	// tables on demand — quotients are small enough that this is cheap.
	parts := u.partitionsIfBuilt()
	if u.sym != nil {
		parts = nil
	}
	sort.Slice(parts, func(i, j int) bool { return parts[i].set.Key() < parts[j].set.Key() })
	body = binary.AppendUvarint(body, uint64(len(parts)))
	for _, pt := range parts {
		ids := pt.set.IDs()
		body = binary.AppendUvarint(body, uint64(len(ids)))
		for _, p := range ids {
			body = binary.AppendUvarint(body, uint64(tab.Ref(string(p))))
		}
		body = binary.AppendUvarint(body, uint64(len(pt.members)))
		for _, c := range pt.classID {
			body = binary.AppendUvarint(body, uint64(c))
		}
	}

	// Symmetry section (version 2 only): the group's classes and the
	// per-member orbit sizes. The full-universe cardinality is their
	// sum, recomputed at load.
	version := byte(snapshotVersion)
	if u.sym != nil {
		version = snapshotVersionSym
		body = binary.AppendUvarint(body, uint64(len(u.sym.classes)))
		for _, cl := range u.sym.classes {
			body = binary.AppendUvarint(body, uint64(len(cl)))
			for _, p := range cl {
				body = binary.AppendUvarint(body, uint64(tab.Ref(string(p))))
			}
		}
		for _, o := range u.orbitSize {
			body = binary.AppendUvarint(body, uint64(o))
		}
	}

	// Assemble: digest, bound, string table (now complete), body.
	payload := make([]byte, 0, len(body)+len(digest)+64)
	payload = binary.AppendUvarint(payload, uint64(len(digest)))
	payload = append(payload, digest...)
	payload = binary.AppendUvarint(payload, uint64(u.maxEvents))
	strs := tab.Strings()
	payload = binary.AppendUvarint(payload, uint64(len(strs)))
	for _, s := range strs {
		payload = binary.AppendUvarint(payload, uint64(len(s)))
		payload = append(payload, s...)
	}
	payload = append(payload, body...)

	hdr := make([]byte, 0, len(snapshotMagic)+9)
	hdr = append(hdr, snapshotMagic...)
	hdr = append(hdr, version)
	hdr = binary.LittleEndian.AppendUint64(hdr, uint64(len(payload)))
	if _, err := w.Write(hdr); err != nil {
		return err
	}
	if _, err := w.Write(payload); err != nil {
		return err
	}
	var sum [8]byte
	binary.LittleEndian.PutUint64(sum[:], crc64.Checksum(payload, snapshotCRC))
	_, err := w.Write(sum[:])
	return err
}

// ReadSnapshot loads a universe and its digest key from r. The loaded
// universe answers every query the original did — partition tables and
// the transition graph included in the snapshot are pre-installed — and
// becomes extendable again after BindProtocol. Malformed input returns
// a structured error (ErrSnapshotFormat, ErrSnapshotVersion,
// ErrSnapshotTruncated, or ErrSnapshotCorrupt), never a panic.
func ReadSnapshot(r io.Reader) (*Universe, string, error) {
	// No universe (hence no per-build trace) exists yet; decode time
	// goes to the global phase histogram only.
	sp := (*obs.Trace)(nil).Start("snapshot.decode")
	defer func() { phaseSnapDecode.ObserveDuration(sp.End()) }()
	hdr := make([]byte, len(snapshotMagic)+9)
	if _, err := io.ReadFull(r, hdr); err != nil {
		return nil, "", fmt.Errorf("%w: header: %v", ErrSnapshotTruncated, err)
	}
	if string(hdr[:len(snapshotMagic)]) != snapshotMagic {
		return nil, "", fmt.Errorf("%w: bad magic %q", ErrSnapshotFormat, hdr[:len(snapshotMagic)])
	}
	version := hdr[len(snapshotMagic)]
	if version != snapshotVersion && version != snapshotVersionSym {
		return nil, "", fmt.Errorf("%w: version %d (this build reads %d and %d)", ErrSnapshotVersion, version, snapshotVersion, snapshotVersionSym)
	}
	plen := binary.LittleEndian.Uint64(hdr[len(snapshotMagic)+1:])
	if plen > math.MaxInt64-8 {
		return nil, "", fmt.Errorf("%w: implausible payload length %d", ErrSnapshotCorrupt, plen)
	}
	payload, err := readPayload(r, plen)
	if err != nil {
		return nil, "", fmt.Errorf("%w: payload is %d of %d bytes", ErrSnapshotTruncated, len(payload), plen)
	}
	var sum [8]byte
	if _, err := io.ReadFull(r, sum[:]); err != nil {
		return nil, "", fmt.Errorf("%w: checksum: %v", ErrSnapshotTruncated, err)
	}
	if got, want := crc64.Checksum(payload, snapshotCRC), binary.LittleEndian.Uint64(sum[:]); got != want {
		return nil, "", fmt.Errorf("%w: checksum mismatch (have %016x, file says %016x)", ErrSnapshotCorrupt, got, want)
	}

	sr := &snapReader{b: payload}
	digest := string(sr.bytes(sr.count(sr.rem())))
	maxEvents := sr.uvarint()

	// String table.
	strs := make([]string, 0, sr.count(sr.rem()))
	for n := cap(strs); len(strs) < n && sr.err == nil; {
		strs = append(strs, string(sr.bytes(sr.count(sr.rem()))))
	}

	// Processes.
	procIDs := make([]trace.ProcID, 0, sr.count(sr.rem()))
	for n := cap(procIDs); len(procIDs) < n && sr.err == nil; {
		procIDs = append(procIDs, trace.ProcID(sr.str(strs)))
	}

	// State vectors.
	vecs := make([][]string, 0, sr.count(sr.rem()))
	for n := cap(vecs); len(vecs) < n && sr.err == nil; {
		v := make([]string, 0, sr.count(sr.rem()))
		for k := cap(v); len(v) < k && sr.err == nil; {
			v = append(v, sr.str(strs))
		}
		vecs = append(vecs, v)
	}

	// Members. Each is its parent (already loaded: parents precede
	// children in canonical order) extended by one event; hashes are
	// re-derived by that construction, not trusted from the file.
	nmem := sr.count(min(sr.rem(), math.MaxInt32))
	comps := make([]*trace.Computation, 0, nmem)
	svs := make([]int32, 0, nmem)
	var arena trace.Arena
	for i := 0; i < nmem && sr.err == nil; i++ {
		pref := sr.uvarint()
		switch {
		case pref == 0:
			comps = append(comps, trace.Empty())
		case pref > uint64(i):
			sr.fail("member %d's parent reference %d is not an earlier member", i, pref-1)
		default:
			ev, n, err := trace.DecodeEventBinary(sr.b[sr.off:], strs)
			if err != nil {
				sr.fail("member %d: %v", i, err)
				break
			}
			sr.off += n
			comps = append(comps, arena.Extend(comps[pref-1], ev))
		}
		if sv := sr.uvarint(); sr.err == nil {
			if sv >= uint64(len(vecs)) {
				sr.fail("member %d: state vector %d out of range", i, sv)
			} else {
				svs = append(svs, int32(sv))
			}
		}
	}
	// Canonical order is asserted by the writer; re-verify it rather
	// than trusting the file, since everything downstream (Transitions
	// identity order, Extend's concatenation) leans on it.
	for i := 1; i < len(comps) && sr.err == nil; i++ {
		a, b := comps[i-1], comps[i]
		if a.Len() > b.Len() || (a.Len() == b.Len() && !a.Hash().Less(b.Hash())) {
			sr.fail("members %d and %d out of canonical order", i-1, i)
		}
	}
	if sr.err != nil {
		return nil, "", sr.err
	}

	// The strict canonical order just verified implies the members are
	// pairwise distinct, so wrap them directly; the member hash index is
	// built lazily if the workload probes it.
	u := newSorted(comps, trace.NewProcSet(procIDs...))
	u.maxEvents = int(maxEvents)
	u.states = newStateTableFrom(vecs)
	u.memberSV = svs

	// Transition graph.
	if flag := sr.bytes(1); sr.err == nil && flag[0] != 0 {
		t := &Transitions{
			parent: make([]int32, nmem),
			label:  make([]int32, nmem),
			procs:  procIDs,
		}
		for j := 0; j < nmem && sr.err == nil; j++ {
			pref, lref := sr.uvarint(), sr.uvarint()
			if pref > uint64(j) {
				sr.fail("transition %d: parent %d is not an earlier member", j, pref-1)
				break
			}
			if lref > uint64(len(procIDs)) {
				sr.fail("transition %d: label %d out of range", j, lref-1)
				break
			}
			t.parent[j], t.label[j] = int32(pref)-1, int32(lref)-1
		}
		if sr.err == nil {
			t.buildForward()
			u.transOnce.Do(func() { u.trans.Store(t) })
		}
	}

	// Partition tables.
	nparts := sr.count(sr.rem())
	for k := 0; k < nparts && sr.err == nil; k++ {
		ids := make([]trace.ProcID, 0, sr.count(sr.rem()))
		for n := cap(ids); len(ids) < n && sr.err == nil; {
			ids = append(ids, trace.ProcID(sr.str(strs)))
		}
		nclass := sr.count(nmem)
		classID := make([]int32, nmem)
		counts := make([]int32, nclass)
		for i := 0; i < nmem && sr.err == nil; i++ {
			c := sr.uvarint()
			if c >= uint64(nclass) {
				sr.fail("partition %d: class %d out of range", k, c)
				break
			}
			classID[i] = int32(c)
			counts[c]++
		}
		if sr.err != nil {
			break
		}
		// Lay the member lists out exactly as NewPartition does, and
		// index the classes by projection hash: every member of a class
		// shares one, so the class's first member supplies it.
		set := trace.NewProcSet(ids...)
		byHash := make(map[trace.Hash128]int32, nclass)
		members := layoutMembers(classID, counts)
		for c, ms := range members {
			if len(ms) == 0 {
				sr.fail("partition %d: class %d has no members", k, c)
				break
			}
			byHash[u.At(ms[0]).ProjectionHash(set)] = int32(c)
		}
		if sr.err != nil {
			break
		}
		u.installPartition(&Partition{
			set:     set,
			classID: classID,
			members: members,
			byHash:  byHash,
		})
	}

	// Symmetry section (version 2 only).
	if version == snapshotVersionSym && sr.err == nil {
		classes := make([][]trace.ProcID, 0, sr.count(sr.rem()))
		for n := cap(classes); len(classes) < n && sr.err == nil; {
			cl := make([]trace.ProcID, 0, sr.count(sr.rem()))
			for k := cap(cl); len(cl) < k && sr.err == nil; {
				cl = append(cl, trace.ProcID(sr.str(strs)))
			}
			classes = append(classes, cl)
		}
		orbs := make([]int64, 0, nmem)
		for i := 0; i < nmem && sr.err == nil; i++ {
			o := sr.uvarint()
			if o == 0 || o > uint64(math.MaxInt64) {
				sr.fail("member %d: orbit size %d out of range", i, o)
				break
			}
			orbs = append(orbs, int64(o))
		}
		if sr.err == nil {
			sym, err := NewSymmetry(classes...)
			switch {
			case err != nil:
				sr.fail("symmetry section: %v", err)
			case sym.Trivial():
				sr.fail("symmetry section declares a trivial group")
			default:
				var full int64
				for _, o := range orbs {
					full += o
				}
				u.sym = sym
				u.orbitSize = orbs
				u.fullSize = full
			}
		}
	}
	if sr.err == nil && sr.rem() != 0 {
		sr.fail("%d bytes of trailing data", sr.rem())
	}
	if sr.err != nil {
		return nil, "", sr.err
	}
	return u, digest, nil
}

// readPayload reads exactly n bytes, growing the buffer in bounded
// chunks as bytes actually arrive, so a corrupt length on a short file
// fails as truncation instead of attempting one huge allocation.
func readPayload(r io.Reader, n uint64) ([]byte, error) {
	const chunk = 4 << 20
	size := n
	if size > chunk {
		size = chunk
	}
	buf := make([]byte, 0, size)
	for uint64(len(buf)) < n {
		grow := n - uint64(len(buf))
		if grow > chunk {
			grow = chunk
		}
		start := len(buf)
		next := uint64(start) + grow
		if uint64(cap(buf)) < next {
			nb := make([]byte, next)
			copy(nb, buf)
			buf = nb
		} else {
			buf = buf[:next]
		}
		if _, err := io.ReadFull(r, buf[start:]); err != nil {
			return buf[:start], err
		}
	}
	return buf, nil
}

// snapReader is a sticky-error cursor over the checksummed payload.
// Because the checksum is verified before parsing, its failures mean a
// genuinely malformed (or adversarial) file, but they must still be
// errors, never panics.
type snapReader struct {
	b   []byte
	off int
	err error
}

func (r *snapReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: "+format, append([]any{ErrSnapshotCorrupt}, args...)...)
	}
}

func (r *snapReader) rem() int { return len(r.b) - r.off }

func (r *snapReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		r.fail("bad varint at payload byte %d", r.off)
		return 0
	}
	r.off += n
	return v
}

// count reads a collection size and bounds it by max — every collection
// in the format has at least one byte per element, so a size beyond the
// remaining payload cannot be honest, and rejecting it here keeps
// allocations proportional to the actual file.
func (r *snapReader) count(max int) int {
	v := r.uvarint()
	if r.err == nil && v > uint64(max) {
		r.fail("count %d exceeds remaining payload bound %d", v, max)
	}
	if r.err != nil {
		return 0
	}
	return int(v)
}

func (r *snapReader) bytes(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n > r.rem() {
		r.fail("%d bytes wanted at payload byte %d, %d remain", n, r.off, r.rem())
		return nil
	}
	b := r.b[r.off : r.off+n]
	r.off += n
	return b
}

// str reads a string-table reference.
func (r *snapReader) str(strs []string) string {
	v := r.uvarint()
	if r.err != nil {
		return ""
	}
	if v >= uint64(len(strs)) {
		r.fail("string reference %d out of range (table has %d)", v, len(strs))
		return ""
	}
	return strs[v]
}
