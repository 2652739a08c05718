package names

import (
	"bytes"
	"cmp"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"slices"
	"sync"

	"nexus/internal/buffer"
	"nexus/internal/transport"
)

// This file grows the name service into a versioned peer/descriptor registry:
// the data structure under cluster-wide anti-entropy gossip. Each live
// context owns exactly one Record, versioned by a per-origin monotonic
// sequence number — no clocks anywhere — and deleted by publishing a
// tombstone under a higher sequence. Two registries that have seen the same
// set of records hold identical tables regardless of the order, duplication,
// or staleness of the deliveries, because Merge is a join on a total order:
// higher sequence wins, a tombstone beats a live record at the same
// sequence, and ties between same-kind records are broken by comparing
// their canonical encodings. That last rule is what makes "two contexts
// concurrently claim the same origin at the same version" converge instead
// of flapping.

// Record is one origin's registry entry: the descriptor table it advertises,
// or a tombstone marking it departed. Tables held by a registry are shared,
// not copied — callers must treat them as immutable.
type Record struct {
	// Origin is the context the record describes; only that context (or a
	// peer declaring it crashed) publishes new versions of it.
	Origin transport.ContextID
	// Seq is the origin's monotonic version counter. It orders the origin's
	// records without any clock: a joining context that finds an older
	// record (or its own tombstone) adopts that sequence plus one.
	Seq uint64
	// Tombstone marks the origin as departed; the table is absent.
	Tombstone bool
	// Forwarder advertises willingness to relay frames for third parties;
	// mesh route computation only routes through forwarders.
	Forwarder bool
	// Partition is the origin's partition tag, for display and diagnostics.
	Partition string
	// GossipEP is the endpoint id of the origin's gossip agent, so any peer
	// that learns the record can address anti-entropy traffic to it.
	GossipEP uint64
	// Table is the origin's advertised descriptor table (nil on tombstones).
	Table *transport.Table
}

// encode packs the record canonically: fixed field order, and the table's
// own deterministic attribute ordering. Equal records encode identically, so
// the encoding doubles as the tie-break comparand and the digest hash input.
func (r Record) encode(b *buffer.Buffer) {
	b.PutUint64(uint64(r.Origin))
	b.PutUint64(r.Seq)
	var flags byte
	if r.Tombstone {
		flags |= 1
	}
	if r.Forwarder {
		flags |= 2
	}
	if r.Table != nil {
		flags |= 4
	}
	b.PutByte(flags)
	b.PutString(r.Partition)
	b.PutUint64(r.GossipEP)
	if r.Table != nil {
		r.Table.Encode(b)
	}
}

// decodeRecord unpacks a record encoded with encode.
func decodeRecord(b *buffer.Buffer) (Record, error) {
	r := Record{
		Origin: transport.ContextID(b.Uint64()),
		Seq:    b.Uint64(),
	}
	flags := b.Byte()
	r.Tombstone = flags&1 != 0
	r.Forwarder = flags&2 != 0
	r.Partition = b.String()
	r.GossipEP = b.Uint64()
	if err := b.Err(); err != nil {
		return r, fmt.Errorf("names: decoding record: %w", err)
	}
	if flags&4 != 0 {
		t, err := transport.DecodeTable(b)
		if err != nil {
			return r, fmt.Errorf("names: decoding record table: %w", err)
		}
		r.Table = t
	}
	return r, nil
}

// DigestEntry summarizes one record for an anti-entropy exchange: enough for
// the receiver to decide newer/older/divergent without shipping the table.
type DigestEntry struct {
	Origin transport.ContextID
	Seq    uint64
	Hash   uint64
}

// Digest is one bounded anti-entropy summary: the sender's digest entries
// for every record it holds with origin inside the [Lo, Hi] window. The
// window is circular over the 64-bit origin keyspace (Lo > Hi wraps), and
// rotates across rounds so a bounded digest still covers the whole table
// eventually. A window covering the full keyspace means the entry list is
// exhaustive.
type Digest struct {
	Lo, Hi  transport.ContextID
	Entries []DigestEntry
}

// covers reports whether origin falls inside the digest's circular window.
func (d Digest) covers(o transport.ContextID) bool {
	if d.Lo <= d.Hi {
		return o >= d.Lo && o <= d.Hi
	}
	return o >= d.Lo || o <= d.Hi
}

// maxDigestEntries bounds hostile digest lengths.
const maxDigestEntries = 1 << 16

// Encode packs the digest.
func (d Digest) Encode(b *buffer.Buffer) {
	b.PutUint64(uint64(d.Lo))
	b.PutUint64(uint64(d.Hi))
	b.PutUint32(uint32(len(d.Entries)))
	for _, e := range d.Entries {
		b.PutUint64(uint64(e.Origin))
		b.PutUint64(e.Seq)
		b.PutUint64(e.Hash)
	}
}

// DecodeDigest unpacks a digest, validating the count against the bytes
// actually present.
func DecodeDigest(b *buffer.Buffer) (Digest, error) {
	d := Digest{
		Lo: transport.ContextID(b.Uint64()),
		Hi: transport.ContextID(b.Uint64()),
	}
	n := int(b.Uint32())
	if err := b.Err(); err != nil {
		return d, fmt.Errorf("names: decoding digest: %w", err)
	}
	if n > maxDigestEntries || n*24 > b.Remaining() {
		return d, fmt.Errorf("names: digest count %d cannot fit in %d bytes", n, b.Remaining())
	}
	d.Entries = make([]DigestEntry, 0, n)
	for i := 0; i < n; i++ {
		d.Entries = append(d.Entries, DigestEntry{
			Origin: transport.ContextID(b.Uint64()),
			Seq:    b.Uint64(),
			Hash:   b.Uint64(),
		})
	}
	if err := b.Err(); err != nil {
		return d, fmt.Errorf("names: decoding digest entries: %w", err)
	}
	return d, nil
}

// EncodeRecords packs a record batch.
func EncodeRecords(b *buffer.Buffer, recs []Record) {
	b.PutUint32(uint32(len(recs)))
	for _, r := range recs {
		r.encode(b)
	}
}

// maxRecordBatch bounds hostile record-batch lengths.
const maxRecordBatch = 1 << 16

// DecodeRecords unpacks a record batch encoded with EncodeRecords.
func DecodeRecords(b *buffer.Buffer) ([]Record, error) {
	n := int(b.Uint32())
	if err := b.Err(); err != nil {
		return nil, fmt.Errorf("names: decoding records: %w", err)
	}
	// A record is at least 8+8+1+4+8 bytes.
	if n > maxRecordBatch || n*29 > b.Remaining() {
		return nil, fmt.Errorf("names: record count %d cannot fit in %d bytes", n, b.Remaining())
	}
	out := make([]Record, 0, n)
	for i := 0; i < n; i++ {
		r, err := decodeRecord(b)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

// stored is a registry entry with its canonical encoding and content hash
// cached at merge time, so digest rounds, tie-breaks and Equal never
// re-encode: at thousand-context scale a bounded digest touches hundreds of
// records per round, and recomputing FNV over a re-encoded table each time
// would dominate the round's cost. gen is the generation the entry was
// applied at, which AppendChanged reads.
type stored struct {
	rec  Record
	enc  []byte
	hash uint64
	gen  uint64
}

// Entry is a record as the registry holds it, with its stored content hash.
type Entry struct {
	Rec  Record
	Hash uint64
}

// fpMix folds one record's identity into the registry fingerprint. XOR of
// per-record mixes makes the fingerprint order-independent and incrementally
// maintainable under replacement.
func fpMix(origin transport.ContextID, seq, hash uint64) uint64 {
	return hash ^ (uint64(origin) * 0x9e3779b97f4a7c15) ^ (seq * 0xbf58476d1ce4e5b9)
}

// Registry is the versioned membership/descriptor table a gossip agent
// maintains: one Record per origin, merged under the deterministic order
// described above. All methods are safe for concurrent use.
//
// No read sorts the table. The ordered index holds every record's digest
// entry in origin order, kept sorted by inserting in place, which is cheap
// because new origins are rare — one per context per cluster lifetime — so
// digests are slices of it and delta scans never touch the record map. A
// change log lets the agent fold in only what moved since its last round.
type Registry struct {
	mu    sync.RWMutex
	recs  map[transport.ContextID]stored
	order []DigestEntry         // every record's (origin, seq, hash), ascending by origin
	live  []transport.ContextID // origins of non-tombstone records, ascending
	// log holds the origin of every applied Merge since generation logBase,
	// oldest first: log[i] was applied at generation logBase+1+i. It is
	// dropped once it outgrows the table; AppendChanged readers from before
	// logBase then scan order instead.
	log     []transport.ContextID
	logBase uint64
	scratch *buffer.Buffer // Merge's encoding of the incoming record
	gen     uint64         // bumped on every applied change; cheap "did anything move" probe
	fp      uint64         // order-independent content fingerprint (Fingerprint)
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{recs: make(map[transport.ContextID]stored), scratch: buffer.New(128)}
}

// byOrigin orders a digest entry against an origin, for binary searches.
func byOrigin(e DigestEntry, o transport.ContextID) int { return cmp.Compare(e.Origin, o) }

// Merge folds one record in and reports whether it changed the table. The
// outcome is independent of delivery order, duplication, and interleaving
// with stale versions: higher Seq wins; at equal Seq a tombstone beats a
// live record; and two same-kind records at the same Seq are ordered by
// their canonical encodings, so every registry picks the same winner.
func (r *Registry) Merge(rec Record) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	cur, ok := r.recs[rec.Origin]
	// A lower sequence, or a live record at a stored tombstone's sequence,
	// loses without being encoded.
	if ok && (rec.Seq < cur.rec.Seq || rec.Seq == cur.rec.Seq && cur.rec.Tombstone && !rec.Tombstone) {
		return false
	}
	r.scratch.Reset()
	rec.encode(r.scratch)
	enc := r.scratch.Bytes()
	if ok {
		if rec.Seq == cur.rec.Seq && rec.Tombstone == cur.rec.Tombstone && bytes.Compare(enc, cur.enc) <= 0 {
			return false
		}
		r.fp ^= fpMix(rec.Origin, cur.rec.Seq, cur.hash)
	}
	enc = bytes.Clone(enc)
	h := fnv.New64a()
	h.Write(enc)
	hash := h.Sum64()
	r.gen++
	r.recs[rec.Origin] = stored{rec: rec, enc: enc, hash: hash, gen: r.gen}
	r.fp ^= fpMix(rec.Origin, rec.Seq, hash)

	entry := DigestEntry{Origin: rec.Origin, Seq: rec.Seq, Hash: hash}
	if i, found := slices.BinarySearchFunc(r.order, rec.Origin, byOrigin); found {
		r.order[i] = entry
	} else {
		r.order = slices.Insert(r.order, i, entry)
	}
	switch wasLive := ok && !cur.rec.Tombstone; {
	case !rec.Tombstone && !wasLive:
		i, _ := slices.BinarySearch(r.live, rec.Origin)
		r.live = slices.Insert(r.live, i, rec.Origin)
	case rec.Tombstone && wasLive:
		i, _ := slices.BinarySearch(r.live, rec.Origin)
		r.live = slices.Delete(r.live, i, i+1)
	}
	r.log = append(r.log, rec.Origin)
	if len(r.log) > len(r.recs) {
		r.log = r.log[:0]
		r.logBase = r.gen
	}
	return true
}

// MergeAll folds a batch in and reports how many records were applied.
func (r *Registry) MergeAll(recs []Record) int {
	applied := 0
	for _, rec := range recs {
		if r.Merge(rec) {
			applied++
		}
	}
	return applied
}

// Get returns the record for an origin.
func (r *Registry) Get(origin transport.ContextID) (Record, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	s, ok := r.recs[origin]
	return s.rec, ok
}

// Fingerprint returns an order-independent digest of the registry's full
// contents, maintained incrementally by Merge. Two registries with equal
// fingerprints and equal lengths hold the same records with overwhelming
// probability — the O(1) convergence probe the thousand-context scale
// harness polls every round, where pairwise Equal would be quadratic in
// cluster size.
func (r *Registry) Fingerprint() uint64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.fp
}

// Gen reports the registry's change generation: it moves exactly when a
// Merge applies, so pollers can skip recomputation when nothing changed.
func (r *Registry) Gen() uint64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.gen
}

// Len reports the number of records held, tombstones included.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.recs)
}

// Live returns every non-tombstone record, sorted by origin.
func (r *Registry) Live() []Record {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]Record, 0, len(r.live))
	for _, o := range r.live {
		out = append(out, r.recs[o].rec)
	}
	return out
}

// Snapshot returns every record, tombstones included, sorted by origin.
func (r *Registry) Snapshot() []Record {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]Record, 0, len(r.order))
	for _, e := range r.order {
		out = append(out, r.recs[e.Origin].rec)
	}
	return out
}

// Equal reports whether two registries hold identical records — the
// convergence predicate the gossip tests and FuzzGossipMerge assert.
func (r *Registry) Equal(o *Registry) bool {
	if r == o {
		return true
	}
	// Collect one side's stored encodings first, so the two locks are never
	// held together.
	r.mu.RLock()
	encs := make([][]byte, 0, len(r.order))
	for _, e := range r.order {
		encs = append(encs, r.recs[e.Origin].enc)
	}
	r.mu.RUnlock()
	o.mu.RLock()
	defer o.mu.RUnlock()
	if len(encs) != len(o.order) {
		return false
	}
	for i, e := range o.order {
		if !bytes.Equal(encs[i], o.recs[e.Origin].enc) {
			return false
		}
	}
	return true
}

// AppendChanged appends every record applied after generation since, in
// origin order and each with its stored hash, and returns the generation it
// read at: passing that back as since on the next call yields exactly the
// changes in between. Its cost follows the number of changes, not the table,
// unless since predates the change log, in which case it scans the index.
func (r *Registry) AppendChanged(dst []Entry, since uint64) ([]Entry, uint64) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if since >= r.gen {
		return dst, r.gen
	}
	if since < r.logBase {
		for _, e := range r.order {
			if s := r.recs[e.Origin]; s.gen > since {
				dst = append(dst, Entry{Rec: s.rec, Hash: s.hash})
			}
		}
		return dst, r.gen
	}
	tail := r.log[since-r.logBase:]
	from := len(dst)
	dst = slices.Grow(dst, min(len(tail), len(r.recs)))
	for i, o := range tail {
		// An origin applied more than once is reported at its last apply.
		if s := r.recs[o]; s.gen == since+1+uint64(i) {
			dst = append(dst, Entry{Rec: s.rec, Hash: s.hash})
		}
	}
	slices.SortFunc(dst[from:], func(a, b Entry) int { return cmp.Compare(a.Rec.Origin, b.Rec.Origin) })
	return dst, r.gen
}

// SampleLive draws up to k live records other than exclude without copying
// the live list. It numbers those records 0..n-1 in origin order, fills perm
// with that identity and shuffles it with rng.Shuffle(n, ...), exactly as
// shuffling the origin-ordered list would, so a seeded rng draws the same
// records in the same order. The records at the first k positions are
// appended to dst, and perm is returned for reuse.
func (r *Registry) SampleLive(dst []Record, perm []int32, exclude transport.ContextID, k int, rng *rand.Rand) ([]Record, []int32) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	skip, excluded := slices.BinarySearch(r.live, exclude)
	n := len(r.live)
	if excluded {
		n--
	}
	perm = perm[:0]
	for i := 0; i < n; i++ {
		perm = append(perm, int32(i))
	}
	rng.Shuffle(n, func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
	for _, rank := range perm[:min(k, n)] {
		i := int(rank)
		if excluded && i >= skip {
			i++
		}
		dst = append(dst, r.recs[r.live[i]].rec)
	}
	return dst, perm
}

// Tombstones returns every tombstone record, sorted by origin. It looks up
// only the tombstones: the origins missing from the live index.
func (r *Registry) Tombstones() []Record {
	r.mu.RLock()
	defer r.mu.RUnlock()
	var out []Record
	live := r.live
	for _, e := range r.order {
		if len(live) > 0 && live[0] == e.Origin {
			live = live[1:]
		} else {
			out = append(out, r.recs[e.Origin].rec)
		}
	}
	return out
}

// Digest summarizes up to limit records starting at the given rotation index
// into the registry's sorted origin list, and returns the index where the
// next round should start. When the whole table fits, the window spans the
// full keyspace so the receiver knows the entry list is exhaustive;
// otherwise the window tightly brackets the included origins (circularly)
// and successive rounds sweep the table. This is what keeps gossip rounds
// bounded at thousand-context scale: a round's digest never exceeds limit
// entries no matter how large the cluster grows.
func (r *Registry) Digest(start, limit int) (Digest, int) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	n := len(r.order)
	if n == 0 {
		return Digest{Lo: 0, Hi: math.MaxUint64}, 0
	}
	if limit <= 0 || limit >= n {
		return Digest{Lo: 0, Hi: math.MaxUint64, Entries: slices.Clone(r.order)}, 0
	}
	start %= n
	d := Digest{Entries: make([]DigestEntry, 0, limit)}
	if end := start + limit; end <= n {
		d.Entries = append(d.Entries, r.order[start:end]...)
	} else {
		d.Entries = append(append(d.Entries, r.order[start:]...), r.order[:end-n]...)
	}
	d.Lo = d.Entries[0].Origin
	d.Hi = d.Entries[len(d.Entries)-1].Origin
	return d, (start + limit) % n
}

// DeltaFor computes the responder half of a push-pull round: the records we
// hold inside the digest's window that the digest lacks, holds at a lower
// sequence, or holds divergently at the same sequence (capped at maxDelta,
// lowest origins first), plus the origins where the digest is ahead of us —
// the want-list the requester answers with a push. Both come out in origin
// order. A well-formed digest is one ascending run of origins, rotated at
// most once where its window wraps, so it is merged against the index's
// range inside the window in one linear pass, with no per-entry lookup; a
// digest in any other order is sorted first.
func (r *Registry) DeltaFor(d Digest, maxDelta int) (delta []Record, wants []transport.ContextID) {
	low, high, ok := ascendingRuns(d.Entries)
	if !ok {
		// Malformed or hostile: any other order. Merge against a sorted
		// copy that keeps the first entry for each origin.
		low, high = slices.Clone(d.Entries), nil
		slices.SortStableFunc(low, func(a, b DigestEntry) int { return cmp.Compare(a.Origin, b.Origin) })
		low = slices.CompactFunc(low, func(a, b DigestEntry) bool { return a.Origin == b.Origin })
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	ship := func(o transport.ContextID) {
		if maxDelta <= 0 || len(delta) < maxDelta {
			delta = append(delta, r.recs[o].rec)
		}
	}
	ours, theirs := d.window(r.order), spans{low, high}
	for i, j := 0, 0; i < ours.len() || j < theirs.len(); {
		switch {
		case j == theirs.len() || i < ours.len() && ours.at(i).Origin < theirs.at(j).Origin:
			ship(ours.at(i).Origin) // they lack it
			i++
		case i == ours.len() || theirs.at(j).Origin < ours.at(i).Origin:
			e := theirs.at(j)
			j++
			if !d.covers(e.Origin) {
				// Outside the window our record, if any, was not walked.
				if i, ok := slices.BinarySearchFunc(r.order, e.Origin, byOrigin); ok && r.order[i].Seq >= e.Seq {
					continue
				}
			}
			wants = append(wants, e.Origin) // we lack it
		default:
			mine, e := ours.at(i), theirs.at(j)
			i, j = i+1, j+1
			switch {
			case e.Seq < mine.Seq:
				ship(mine.Origin)
			case e.Seq > mine.Seq:
				wants = append(wants, e.Origin)
			case e.Hash != mine.Hash:
				// Same version, different content: ship ours and ask for
				// theirs; Merge's tie-break settles both sides on one winner.
				ship(mine.Origin)
				wants = append(wants, e.Origin)
			}
		}
	}
	return delta, wants
}

// spans reads two ascending runs of entries as one.
type spans [2][]DigestEntry

func (s spans) len() int { return len(s[0]) + len(s[1]) }

func (s spans) at(i int) DigestEntry {
	if i < len(s[0]) {
		return s[0][i]
	}
	return s[1][i-len(s[0])]
}

// ascendingRuns splits digest entries into the strictly ascending runs a
// well-formed digest is made of: the whole list, or — when its window wraps
// past the top of the keyspace — its low and high ends. ok is false for any
// other order.
func ascendingRuns(es []DigestEntry) (low, high []DigestEntry, ok bool) {
	cut := 0
	for i := 1; i < len(es); i++ {
		if es[i].Origin <= es[i-1].Origin {
			if cut != 0 {
				return nil, nil, false
			}
			cut = i
		}
	}
	if cut == 0 {
		return es, nil, true
	}
	if es[len(es)-1].Origin >= es[0].Origin {
		return nil, nil, false
	}
	return es[cut:], es[:cut], true
}

// window returns the part of the ascending entries es inside the digest's
// window, in ascending order: the low end of a wrapping window first, then
// the rest.
func (d Digest) window(es []DigestEntry) spans {
	from, _ := slices.BinarySearchFunc(es, d.Lo, byOrigin)
	to, found := slices.BinarySearchFunc(es, d.Hi, byOrigin)
	if found {
		to++
	}
	if d.Lo <= d.Hi {
		return spans{es[from:to], nil}
	}
	return spans{es[:to], es[from:]}
}

// RecordsFor returns the records held for the requested origins (capped at
// max), answering a want-list.
func (r *Registry) RecordsFor(origins []transport.ContextID, max int) []Record {
	out := make([]Record, 0, len(origins))
	r.mu.RLock()
	for _, o := range origins {
		if s, ok := r.recs[o]; ok {
			out = append(out, s.rec)
			if max > 0 && len(out) == max {
				break
			}
		}
	}
	r.mu.RUnlock()
	return out
}
