package names

import (
	"bytes"
	"cmp"
	"hash/fnv"
	"math"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"

	"nexus/internal/buffer"
	"nexus/internal/transport"
)

func tbl(method string, ctx uint64, attrs map[string]string) *transport.Table {
	return transport.NewTable(transport.Descriptor{
		Method: method, Context: transport.ContextID(ctx), Attrs: attrs,
	})
}

// canonical returns the record's canonical encoding.
func (r Record) canonical() []byte {
	b := buffer.New(128)
	r.encode(b)
	return b.Bytes()
}

func TestRegistryMergeVersions(t *testing.T) {
	r := NewRegistry()
	if !r.Merge(Record{Origin: 1, Seq: 1, Table: tbl("mpl", 1, nil)}) {
		t.Fatal("first record not applied")
	}
	g := r.Gen()
	if r.Merge(Record{Origin: 1, Seq: 1, Table: tbl("mpl", 1, nil)}) {
		t.Error("duplicate record applied")
	}
	if r.Gen() != g {
		t.Error("generation moved on a no-op merge")
	}
	if r.Merge(Record{Origin: 1, Seq: 0, Table: tbl("wan", 1, nil)}) {
		t.Error("stale record applied")
	}
	if !r.Merge(Record{Origin: 1, Seq: 2, Table: tbl("wan", 1, nil)}) {
		t.Error("newer record not applied")
	}
	if rec, _ := r.Get(1); rec.Seq != 2 || rec.Table.Entries[0].Method != "wan" {
		t.Errorf("registry holds %+v after newer merge", rec)
	}
	// The overtaken version stays dead.
	if r.Merge(Record{Origin: 1, Seq: 1, Table: tbl("atm", 1, nil)}) {
		t.Error("resurrected stale record")
	}
}

// TestRegistryTombstoneEdgeCases covers the leave/crash protocol: a
// tombstone beats a live record at the same version, loses to a higher one,
// and a re-registering context must adopt a sequence above its tombstone.
func TestRegistryTombstoneEdgeCases(t *testing.T) {
	r := NewRegistry()
	r.Merge(Record{Origin: 5, Seq: 3, Table: tbl("mpl", 5, nil)})

	// Tombstone at the same seq wins (leave raced with a refresh).
	if !r.Merge(Record{Origin: 5, Seq: 3, Tombstone: true}) {
		t.Fatal("same-seq tombstone not applied")
	}
	// And the live record at that seq cannot come back.
	if r.Merge(Record{Origin: 5, Seq: 3, Table: tbl("mpl", 5, nil)}) {
		t.Error("live record overwrote same-seq tombstone")
	}
	if len(r.Live()) != 0 {
		t.Errorf("Live() = %v after tombstone", r.Live())
	}

	// Re-register after tombstone: only a higher seq revives the origin.
	if r.Merge(Record{Origin: 5, Seq: 2, Table: tbl("mpl", 5, nil)}) {
		t.Error("stale re-register applied over tombstone")
	}
	if !r.Merge(Record{Origin: 5, Seq: 4, Table: tbl("mpl", 5, nil)}) {
		t.Fatal("re-register after tombstone not applied")
	}
	if rec, _ := r.Get(5); rec.Tombstone || rec.Seq != 4 {
		t.Errorf("revived record = %+v", rec)
	}
	if len(r.Live()) != 1 {
		t.Errorf("Live() = %v after revive", r.Live())
	}
}

// TestRegistryConcurrentJoinTie pins the clock-free tie-break: two contexts
// concurrently publishing the same origin at the same sequence converge to
// the same winner on every registry, in either merge order.
func TestRegistryConcurrentJoinTie(t *testing.T) {
	a := Record{Origin: 9, Seq: 1, Table: tbl("mpl", 9, map[string]string{"addr": "1"})}
	b := Record{Origin: 9, Seq: 1, Table: tbl("mpl", 9, map[string]string{"addr": "2"})}

	r1 := NewRegistry()
	r1.Merge(a)
	r1.Merge(b)
	r2 := NewRegistry()
	r2.Merge(b)
	r2.Merge(a)
	if !r1.Equal(r2) {
		t.Fatalf("tie resolved differently: %+v vs %+v", r1.Snapshot(), r2.Snapshot())
	}
	// Exactly one of the two merges of the loser is a no-op; the winner is
	// stable under re-merge of either.
	win, _ := r1.Get(9)
	if r1.Merge(a) || r1.Merge(b) {
		t.Error("tie winner not stable under re-merge")
	}
	if got, _ := r1.Get(9); !bytes.Equal(got.canonical(), win.canonical()) {
		t.Error("winner changed after re-merge")
	}
}

func TestRecordEncodeDecodeRoundTrip(t *testing.T) {
	recs := []Record{
		{Origin: 1, Seq: 7, Forwarder: true, Partition: "p0", GossipEP: 3,
			Table: tbl("mpl", 1, map[string]string{"addr": "9", "fabric": "f"})},
		{Origin: 2, Seq: 1, Tombstone: true, Partition: "p1"},
	}
	b := buffer.New(256)
	EncodeRecords(b, recs)
	got, err := DecodeRecords(b)
	if err != nil {
		t.Fatalf("DecodeRecords: %v", err)
	}
	if len(got) != 2 {
		t.Fatalf("decoded %d records", len(got))
	}
	for i := range recs {
		if !bytes.Equal(got[i].canonical(), recs[i].canonical()) {
			t.Errorf("record %d did not round-trip: %+v vs %+v", i, got[i], recs[i])
		}
	}

	// Truncated and hostile-count encodings fail cleanly.
	enc := buffer.New(256)
	EncodeRecords(enc, recs)
	raw := enc.Bytes()
	for cut := 1; cut < len(raw); cut += 7 {
		short := buffer.New(0)
		short.PutRaw(raw[:cut])
		if _, err := DecodeRecords(short); err == nil && cut < len(raw)-1 {
			// Some prefixes happen to parse as fewer records; the decoder
			// just must not panic or over-allocate.
			continue
		}
	}
	hostile := buffer.New(8)
	hostile.PutUint32(math.MaxUint32)
	if _, err := DecodeRecords(hostile); err == nil {
		t.Error("hostile record count accepted")
	}
}

func TestDigestWindowRotation(t *testing.T) {
	r := NewRegistry()
	for i := uint64(1); i <= 10; i++ {
		r.Merge(Record{Origin: transport.ContextID(i), Seq: 1, Table: tbl("mpl", i, nil)})
	}
	// Unbounded digest: full keyspace window, exhaustive entries.
	d, next := r.Digest(0, 0)
	if len(d.Entries) != 10 || d.Lo != 0 || d.Hi != math.MaxUint64 || next != 0 {
		t.Fatalf("full digest = %+v next=%d", d, next)
	}
	// Bounded digest sweeps the table over successive rounds.
	seen := map[transport.ContextID]bool{}
	idx := 0
	for round := 0; round < 4; round++ {
		d, idx = r.Digest(idx, 4)
		if len(d.Entries) != 4 {
			t.Fatalf("bounded digest has %d entries", len(d.Entries))
		}
		for _, e := range d.Entries {
			if !d.covers(e.Origin) {
				t.Errorf("window [%d,%d] does not cover own entry %d", d.Lo, d.Hi, e.Origin)
			}
			seen[e.Origin] = true
		}
	}
	if len(seen) != 10 {
		t.Errorf("4 rounds of limit-4 digests covered %d of 10 origins", len(seen))
	}

	// Digest encoding round-trips.
	b := buffer.New(128)
	d.Encode(b)
	got, err := DecodeDigest(b)
	if err != nil || got.Lo != d.Lo || got.Hi != d.Hi || len(got.Entries) != len(d.Entries) {
		t.Fatalf("digest round-trip: %+v err=%v", got, err)
	}
}

func TestDeltaForPushPull(t *testing.T) {
	newer := NewRegistry()
	older := NewRegistry()
	for i := uint64(1); i <= 5; i++ {
		rec := Record{Origin: transport.ContextID(i), Seq: 2, Table: tbl("mpl", i, nil)}
		newer.Merge(rec)
		if i != 3 { // older lacks origin 3 entirely
			older.Merge(Record{Origin: transport.ContextID(i), Seq: 1, Table: tbl("mpl", i, nil)})
		}
	}
	older.Merge(Record{Origin: 9, Seq: 5, Table: tbl("wan", 9, nil)}) // only older has 9

	d, _ := older.Digest(0, 0)
	delta, wants := newer.DeltaFor(d, 0)
	if len(delta) != 5 {
		t.Errorf("delta = %d records, want 5 (all newer + missing)", len(delta))
	}
	if len(wants) != 1 || wants[0] != 9 {
		t.Errorf("wants = %v, want [9]", wants)
	}
	// Applying the delta plus the answered want-list converges the pair.
	older.MergeAll(delta)
	newer.MergeAll(older.RecordsFor(wants, 0))
	if !older.Equal(newer) {
		t.Fatalf("pair did not converge:\n%+v\n%+v", older.Snapshot(), newer.Snapshot())
	}

	// The delta cap truncates lowest-origins-first, never errors.
	empty := NewRegistry()
	ed, _ := empty.Digest(0, 0)
	capped, _ := newer.DeltaFor(ed, 2)
	if len(capped) != 2 || capped[0].Origin != 1 || capped[1].Origin != 2 {
		t.Errorf("capped delta = %+v", capped)
	}
}

// FuzzGossipMerge is the convergence property under adversarial delivery:
// however a batch of records is reordered, duplicated, or interleaved with
// stale versions, every registry that saw the whole batch holds the same
// table.
func FuzzGossipMerge(f *testing.F) {
	f.Add([]byte{1, 0, 1, 2, 1, 0, 1, 1, 3}, uint8(3))
	f.Add([]byte{5, 5, 5, 5, 0, 0, 0, 0, 9, 9, 1, 2, 3, 4}, uint8(7))
	f.Add([]byte{}, uint8(0))
	f.Fuzz(func(t *testing.T, data []byte, rot uint8) {
		// Derive a record batch from the fuzz bytes: 3 bytes each pick an
		// origin, a sequence, and a kind (tombstone / table variant).
		var recs []Record
		for i := 0; i+2 < len(data) && len(recs) < 64; i += 3 {
			origin := transport.ContextID(data[i]%8 + 1)
			seq := uint64(data[i+1] % 8)
			kind := data[i+2] % 4
			rec := Record{Origin: origin, Seq: seq, Partition: "p"}
			switch kind {
			case 0:
				rec.Tombstone = true
			default:
				rec.Forwarder = kind == 2
				rec.Table = tbl("mpl", uint64(origin), map[string]string{
					"addr": string(rune('a' + kind)),
				})
			}
			recs = append(recs, rec)
		}

		forward := NewRegistry()
		forward.MergeAll(recs)

		// Reversed order.
		reversed := NewRegistry()
		for i := len(recs) - 1; i >= 0; i-- {
			reversed.Merge(recs[i])
		}

		// Rotated, with every record delivered twice.
		rotated := NewRegistry()
		if n := len(recs); n > 0 {
			r := int(rot) % n
			for i := 0; i < n; i++ {
				rotated.Merge(recs[(i+r)%n])
				rotated.Merge(recs[(i+r)%n])
			}
		}

		if !forward.Equal(reversed) {
			t.Fatalf("forward and reversed delivery diverged:\n%+v\n%+v",
				forward.Snapshot(), reversed.Snapshot())
		}
		if !forward.Equal(rotated) {
			t.Fatalf("forward and rotated+duplicated delivery diverged:\n%+v\n%+v",
				forward.Snapshot(), rotated.Snapshot())
		}

		// Records survive the wire encoding with merge semantics intact.
		b := buffer.New(1024)
		EncodeRecords(b, recs)
		decoded, err := DecodeRecords(b)
		if err != nil {
			t.Fatalf("round-tripping fuzz records: %v", err)
		}
		wired := NewRegistry()
		wired.MergeAll(decoded)
		if !forward.Equal(wired) {
			t.Fatalf("wire round-trip diverged:\n%+v\n%+v", forward.Snapshot(), wired.Snapshot())
		}

		// The indexes and the change log agree with a map-plus-sort model
		// of the same merges, for every generation a reader could hold.
		model := NewRegistry()
		lastApplied := map[transport.ContextID]uint64{}
		var gen uint64
		for _, rec := range recs {
			if model.Merge(rec) {
				gen++
				lastApplied[rec.Origin] = gen
			}
			checkIndex(t, model)
		}
		for since := uint64(0); since <= gen+1; since++ {
			checkChanged(t, model, lastApplied, since)
		}
		checkSampling(t, model, int64(rot))
	})
}

// TestRegistryChangeLog walks AppendChanged through the log and past its
// compaction: an origin applied twice is reported once, at its latest
// version, in origin order, and a reader from before the log's base still
// gets every change.
func TestRegistryChangeLog(t *testing.T) {
	r := NewRegistry()
	for i := uint64(10); i >= 1; i-- {
		r.Merge(Record{Origin: transport.ContextID(i), Seq: 1, Table: tbl("mpl", i, nil)})
	}
	// The first update outgrows the log, which held the inserts; the reads
	// below start from its new base.
	r.Merge(Record{Origin: 1, Seq: 2, Table: tbl("mpl", 1, nil)})
	base := r.Gen()
	if r.logBase != base {
		t.Fatalf("log base %d after outgrowing the table, want %d", r.logBase, base)
	}
	r.Merge(Record{Origin: 7, Seq: 2, Table: tbl("mpl", 7, nil)})
	r.Merge(Record{Origin: 3, Seq: 2, Table: tbl("mpl", 3, nil)})
	r.Merge(Record{Origin: 7, Seq: 3, Tombstone: true})
	origins := func(es []Entry) []transport.ContextID {
		var out []transport.ContextID
		for _, e := range es {
			out = append(out, e.Rec.Origin)
		}
		return out
	}
	changed, gen := r.AppendChanged(nil, base)
	if got := origins(changed); !slices.Equal(got, []transport.ContextID{3, 7}) || gen != base+3 {
		t.Fatalf("AppendChanged(%d) = %v at gen %d, want [3 7] at %d", base, got, gen, base+3)
	}
	if !changed[1].Rec.Tombstone || changed[1].Rec.Seq != 3 {
		t.Fatalf("origin 7 reported as %+v, want its seq-3 tombstone", changed[1].Rec)
	}
	if again, g := r.AppendChanged(nil, gen); len(again) != 0 || g != gen {
		t.Fatalf("AppendChanged(%d) = %v at gen %d with nothing applied since", gen, origins(again), g)
	}
	// Enough updates to outgrow the table drop the log; origin 5 is the
	// only one touched after them.
	for seq := uint64(3); r.logBase <= base; seq++ {
		r.Merge(Record{Origin: 2, Seq: seq, Table: tbl("mpl", 2, nil)})
	}
	r.Merge(Record{Origin: 5, Seq: 9, Table: tbl("mpl", 5, nil)})
	if got, _ := r.AppendChanged(nil, base); !slices.Equal(origins(got), []transport.ContextID{2, 3, 5, 7}) {
		t.Fatalf("AppendChanged(%d) from before the log = %v, want [2 3 5 7]", base, origins(got))
	}
	if got, _ := r.AppendChanged(nil, r.Gen()-1); !slices.Equal(origins(got), []transport.ContextID{5}) {
		t.Fatalf("AppendChanged of the last apply = %v, want [5]", origins(got))
	}
}

// sortedOrigins is the reference order: the map's keys, sorted.
func sortedOrigins[V any](m map[transport.ContextID]V, keep func(V) bool) []transport.ContextID {
	var out []transport.ContextID
	for o, v := range m {
		if keep(v) {
			out = append(out, o)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// checkIndex compares the registry's ordered indexes, Snapshot and Live with
// its record map sorted by origin.
func checkIndex(t *testing.T, r *Registry) {
	t.Helper()
	all := sortedOrigins(r.recs, func(stored) bool { return true })
	live := sortedOrigins(r.recs, func(s stored) bool { return !s.rec.Tombstone })
	var want []DigestEntry
	for _, o := range all {
		want = append(want, DigestEntry{Origin: o, Seq: r.recs[o].rec.Seq, Hash: r.recs[o].hash})
	}
	if !slices.Equal(r.order, want) || !slices.Equal(r.live, live) {
		t.Fatalf("index order=%v live=%v, want %v and %v", r.order, r.live, want, live)
	}
	for _, c := range []struct {
		got  []Record
		want []transport.ContextID
	}{{r.Snapshot(), all}, {r.Live(), live}} {
		if len(c.got) != len(c.want) {
			t.Fatalf("read %d records, want %d", len(c.got), len(c.want))
		}
		for i, rec := range c.got {
			if rec.Origin != c.want[i] || !bytes.Equal(rec.canonical(), r.recs[rec.Origin].enc) {
				t.Fatalf("record %d = %+v, want origin %d as stored", i, rec, c.want[i])
			}
		}
	}
}

// checkChanged compares AppendChanged(since) with the origins whose last
// applied merge came after since, sorted, each with the FNV-1a hash of its
// canonical encoding.
func checkChanged(t *testing.T, r *Registry, lastApplied map[transport.ContextID]uint64, since uint64) {
	t.Helper()
	want := sortedOrigins(lastApplied, func(g uint64) bool { return g > since })
	got, gen := r.AppendChanged(nil, since)
	if gen != r.Gen() {
		t.Fatalf("AppendChanged(%d) read at gen %d, registry is at %d", since, gen, r.Gen())
	}
	if len(got) != len(want) {
		t.Fatalf("AppendChanged(%d) = %d records, want %d (%v)", since, len(got), len(want), want)
	}
	for i, e := range got {
		rec, _ := r.Get(want[i])
		h := fnv.New64a()
		h.Write(rec.canonical())
		if e.Rec.Origin != want[i] || !bytes.Equal(e.Rec.canonical(), rec.canonical()) || e.Hash != h.Sum64() {
			t.Fatalf("AppendChanged(%d)[%d] = %+v, want origin %d hash %x", since, i, e, want[i], h.Sum64())
		}
	}
}

// checkSampling compares SampleLive with shuffling the origin-ordered live
// list it stands for under the same seed, and Tombstones with filtering
// Snapshot.
func checkSampling(t *testing.T, r *Registry, seed int64) {
	t.Helper()
	var tombs []transport.ContextID
	for _, rec := range r.Snapshot() {
		if rec.Tombstone {
			tombs = append(tombs, rec.Origin)
		}
	}
	var got []transport.ContextID
	for _, rec := range r.Tombstones() {
		got = append(got, rec.Origin)
	}
	if !slices.Equal(got, tombs) {
		t.Fatalf("Tombstones() = %v, want %v", got, tombs)
	}
	for exclude := transport.ContextID(0); exclude <= 9; exclude++ {
		var peers []Record
		for _, rec := range r.Live() {
			if rec.Origin != exclude {
				peers = append(peers, rec)
			}
		}
		ref := rand.New(rand.NewSource(seed))
		ref.Shuffle(len(peers), func(i, j int) { peers[i], peers[j] = peers[j], peers[i] })
		rng := rand.New(rand.NewSource(seed))
		got, _ := r.SampleLive(nil, nil, exclude, 3, rng)
		for i := range got {
			if got[i].Origin != peers[i].Origin {
				t.Fatalf("SampleLive(exclude %d) = %v, want a prefix of %v", exclude, got, peers)
			}
		}
		if len(got) != min(3, len(peers)) {
			t.Fatalf("SampleLive(exclude %d) drew %d of %d", exclude, len(got), len(peers))
		}
	}
}

// referenceDeltaFor is DeltaFor as a map-plus-sort: every digest entry
// indexed by origin, every stored record checked against it, both outputs
// sorted afterwards.
func referenceDeltaFor(r *Registry, d Digest, maxDelta int) ([]Record, []transport.ContextID) {
	known := map[transport.ContextID]DigestEntry{}
	for _, e := range d.Entries {
		known[e.Origin] = e
	}
	hashOf := func(rec Record) uint64 {
		h := fnv.New64a()
		h.Write(rec.canonical())
		return h.Sum64()
	}
	var delta []Record
	var wants []transport.ContextID
	for _, rec := range r.Snapshot() {
		if !d.covers(rec.Origin) {
			continue
		}
		e, ok := known[rec.Origin]
		switch {
		case !ok, e.Seq < rec.Seq:
			delta = append(delta, rec)
		case e.Seq == rec.Seq && e.Hash != hashOf(rec):
			delta = append(delta, rec)
			wants = append(wants, rec.Origin)
		}
	}
	for _, e := range known {
		if rec, ok := r.Get(e.Origin); !ok || rec.Seq < e.Seq {
			wants = append(wants, e.Origin)
		}
	}
	if maxDelta > 0 && len(delta) > maxDelta {
		delta = delta[:maxDelta]
	}
	sort.Slice(wants, func(i, j int) bool { return wants[i] < wants[j] })
	return delta, wants
}

// TestDeltaForDigestOrders checks DeltaFor against the map-plus-sort
// reference on sorted, rotated and shuffled digests. Origins are spread over
// the whole keyspace so bounded windows wrap past its top.
func TestDeltaForDigestOrders(t *testing.T) {
	mine, theirs := NewRegistry(), NewRegistry()
	for i := uint64(1); i <= 40; i++ {
		o := transport.ContextID(i * (math.MaxUint64 / 41))
		rec := Record{Origin: o, Seq: 2, GossipEP: i, Table: tbl("mpl", uint64(o), nil)}
		other := rec
		switch i % 5 {
		case 0: // only we hold it
			mine.Merge(rec)
			continue
		case 1: // only they hold it
			theirs.Merge(rec)
			continue
		case 2: // ours is newer
			other.Seq = 1
		case 3: // theirs is newer
			other.Seq = 3
		case 4: // same version; every other one with other content
			if i%2 == 0 {
				other.Table = tbl("wan", uint64(o), nil)
			}
		}
		mine.Merge(rec)
		theirs.Merge(other)
	}

	rotated, shuffled := 0, 0
	check := func(name string, d Digest) {
		t.Helper()
		if _, high, ok := ascendingRuns(d.Entries); !ok {
			shuffled++
		} else if len(high) > 0 {
			rotated++
		}
		for _, maxDelta := range []int{0, 3} {
			delta, wants := mine.DeltaFor(d, maxDelta)
			wantDelta, wantWants := referenceDeltaFor(mine, d, maxDelta)
			if len(delta) != len(wantDelta) || !slices.Equal(wants, wantWants) {
				t.Fatalf("%s, max %d: delta %d records, wants %v; want %d and %v",
					name, maxDelta, len(delta), wants, len(wantDelta), wantWants)
			}
			for i := range delta {
				if !bytes.Equal(delta[i].canonical(), wantDelta[i].canonical()) {
					t.Fatalf("%s, max %d: delta[%d] = %+v, want %+v", name, maxDelta, i, delta[i], wantDelta[i])
				}
			}
		}
	}
	full, _ := theirs.Digest(0, 0)
	check("full", full)
	rng := rand.New(rand.NewSource(1))
	for start := 0; start < theirs.Len(); start++ {
		d, _ := theirs.Digest(start, 9)
		check("bounded", d)
		// A window narrower than the entries leaves the first and last
		// outside it: they may only be wanted, never shipped or diverged.
		last := len(d.Entries) - 1
		check("narrowed", Digest{Lo: d.Entries[1].Origin, Hi: d.Entries[last-1].Origin, Entries: d.Entries})
		// One descent whose runs overlap is no rotation either.
		es := slices.Clone(d.Entries)
		slices.SortFunc(es, func(a, b DigestEntry) int { return cmp.Compare(a.Origin, b.Origin) })
		overlapped := append(append(slices.Clone(es[2:last]), es[:2]...), es[last])
		check("overlapped", Digest{Lo: d.Lo, Hi: d.Hi, Entries: overlapped})
		hostile := Digest{Lo: d.Lo, Hi: d.Hi, Entries: slices.Clone(d.Entries)}
		for ok := true; ok; _, _, ok = ascendingRuns(hostile.Entries) {
			rng.Shuffle(len(hostile.Entries), func(i, j int) {
				hostile.Entries[i], hostile.Entries[j] = hostile.Entries[j], hostile.Entries[i]
			})
		}
		check("shuffled", hostile)
	}
	if rotated == 0 || shuffled == 0 {
		t.Fatalf("covered %d rotated and %d shuffled digests; want both", rotated, shuffled)
	}
}

// TestRegistryConcurrentReads runs Merge against every reader a gossip
// round makes; under -race it checks the index and change log are read under
// the lock. An incremental AppendChanged reader must end holding exactly the
// final table.
func TestRegistryConcurrentReads(t *testing.T) {
	r := NewRegistry()
	peer := NewRegistry()
	const origins, merges = 48, 1500
	for i := uint64(1); i <= origins; i += 2 {
		peer.Merge(Record{Origin: transport.ContextID(i), Seq: 3, GossipEP: i, Table: tbl("mpl", i, nil)})
	}
	var writers, readers sync.WaitGroup
	done := make(chan struct{})
	for w := 0; w < 2; w++ {
		writers.Add(1)
		go func(seed int64) {
			defer writers.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < merges; i++ {
				o := uint64(rng.Intn(origins) + 1)
				rec := Record{Origin: transport.ContextID(o), Seq: uint64(i / 100), GossipEP: o}
				if rng.Intn(4) == 0 {
					rec.Tombstone = true
				} else {
					rec.Table = tbl("mpl", o, map[string]string{"v": string(rune('a' + rng.Intn(3)))})
				}
				r.Merge(rec)
			}
		}(int64(w + 1))
	}
	seen := map[transport.ContextID]Entry{}
	var since uint64
	readers.Add(2)
	go func() {
		defer readers.Done()
		for {
			var changed []Entry
			changed, since = r.AppendChanged(nil, since)
			for _, e := range changed {
				seen[e.Rec.Origin] = e
			}
			select {
			case <-done:
				return
			default:
			}
		}
	}()
	go func() {
		defer readers.Done()
		rng := rand.New(rand.NewSource(7))
		var perm []int32
		for pos := 0; ; {
			var d Digest
			d, pos = r.Digest(pos, 8)
			peer.DeltaFor(d, 4)
			pd, _ := peer.Digest(rng.Intn(origins), 8)
			r.DeltaFor(pd, 4)
			_, perm = r.SampleLive(nil, perm, 1, 2, rng)
			r.Tombstones()
			select {
			case <-done:
				return
			default:
			}
		}
	}()
	writers.Wait()
	close(done)
	readers.Wait()
	changed, _ := r.AppendChanged(nil, since)
	for _, e := range changed {
		seen[e.Rec.Origin] = e
	}
	snap := r.Snapshot()
	if len(seen) != len(snap) {
		t.Fatalf("change-log reader saw %d origins, registry holds %d", len(seen), len(snap))
	}
	for _, rec := range snap {
		if !bytes.Equal(seen[rec.Origin].Rec.canonical(), rec.canonical()) {
			t.Fatalf("change-log reader holds %+v for origin %d, registry %+v", seen[rec.Origin].Rec, rec.Origin, rec)
		}
	}
	checkIndex(t, r)
}
