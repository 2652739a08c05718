package core

import (
	"errors"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"nexus/internal/buffer"
	"nexus/internal/bufpool"
	"nexus/internal/obsv"
	"nexus/internal/transport"
	"nexus/internal/wire"
)

// Startpoint is the sending end of one or more communication links. A
// startpoint bound to several endpoints multicasts; several startpoints bound
// to one endpoint merge their traffic there. Startpoints are copyable: Encode
// packs a startpoint (with its descriptor tables) into a buffer so it can
// travel inside an RSR, and DecodeStartpoint rebuilds it in the receiving
// context, where method selection runs afresh against the local modules.
type Startpoint struct {
	owner *Context

	mu       sync.Mutex
	targets  []*target
	failover bool

	// snap is the published send snapshot: an immutable view of the link set
	// that concurrent senders read with one atomic load instead of queueing
	// on mu. Mutators rebuild it under mu (publishLocked); senders fall back
	// to the locked slow path only when the snapshot is missing, incomplete,
	// or stale against the health registry's generation.
	snap atomic.Pointer[sendSnapshot]

	// class is the wire.Class every RSR from this startpoint is tagged with
	// (atomic: SetClass may race with concurrent sends). ClassNormal frames
	// carry no class bits, keeping the default send byte-identical to v1.
	class atomic.Uint32
}

// SetClass tags all subsequent RSRs from this startpoint with a traffic
// class. ClassControl traffic bypasses credit windows and dispatch admission
// (and must be reserved for small protocol-critical messages); ClassBulk is
// the first traffic shed under overload; ClassNormal (the default) blocks
// briefly for credit and keeps the configured dispatch policy.
func (sp *Startpoint) SetClass(cls Class) { sp.class.Store(uint32(cls)) }

// Class reports the traffic class RSRs from this startpoint carry.
func (sp *Startpoint) Class() Class { return Class(sp.class.Load()) }

// sendSnapshot is an immutable publication of a startpoint's link set. The
// lock-free send path trusts it as long as its generation matches the health
// registry and no probe is due; everything else goes through prepare.
type sendSnapshot struct {
	// gen is the oldest health-registry generation any link was selected
	// under; the snapshot is stale once the registry moves past it.
	gen uint64
	// ready means every link is bound to a live communication object with no
	// deferred selection error, i.e. the snapshot can be sent on as-is.
	ready    bool
	failover bool
	links    []sendLink
}

// sendLink is one link's frozen binding inside a snapshot.
type sendLink struct {
	t        *target
	context  transport.ContextID
	endpoint uint64
	method   string
	conn     *sharedConn
	// lat caches the method's stage histograms so the instrumented send
	// path records without a map lookup (nil until the link is bound).
	lat *obsv.StageSet
	// maxMsg is the largest encoded frame the bound method accepts in one
	// Send; larger frames take the fragmentation path (bulk.go).
	maxMsg int
	// relay marks a link bound to a mesh-installed relay route: frames carry
	// the wire relay extension (hop budget + loop suppression).
	relay bool
	// selErr carries a selection failure deferred to send time (failover
	// mode): the link gets its frame via the failover loop instead.
	selErr error
}

// target is one communication link: a remote (or local) endpoint plus the
// method state used to reach it.
type target struct {
	context  transport.ContextID
	endpoint uint64
	table    *transport.Table // nil for lightweight startpoints
	method   string
	conn     *sharedConn
	lat      *obsv.StageSet // the bound method's stage histograms
	// maxMsg is the bound method's frame-size limit: the local module's
	// bound intersected with the remote descriptor's max_message attribute
	// (the remote side may accept less than the method could carry). Frames
	// above it are fragmented (bulk.go).
	maxMsg int

	// healthGen is the health-registry generation the current method was
	// selected under; when the registry moves (a circuit trips or heals)
	// the link re-runs selection on its next send.
	healthGen uint64
	// fromPeer marks a table resolved from the owning context's registered
	// peer tables (lightweight startpoint); peerGen is the peer-table
	// generation it was resolved under. When the context's peer tables move
	// (gossip refreshed or removed one) the cached resolution is dropped and
	// the link re-resolves — or fails with ErrNoTable if the peer left.
	fromPeer bool
	peerGen  uint64
	// relayVia is the next-hop relay context id when the bound descriptor is
	// a mesh-installed route (0 for a direct link).
	relayVia uint64
	// reportUp marks a freshly bound communication object whose first
	// successful send should be reported to the health registry (it may be
	// the probe that closes a half-open circuit). Atomic because lock-free
	// senders race to consume it (CompareAndSwap picks the one reporter).
	reportUp atomic.Bool
	// manual pins a method chosen via SetMethod: health transitions do not
	// re-select it (send failures with failover enabled still do).
	manual bool
	// selErr records a selection failure deferred to send time under
	// failover; cleared each prepare pass.
	selErr error
}

// Targets reports the (context, endpoint) pairs this startpoint is linked to.
func (sp *Startpoint) Targets() []struct {
	Context  transport.ContextID
	Endpoint uint64
} {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	out := make([]struct {
		Context  transport.ContextID
		Endpoint uint64
	}, len(sp.targets))
	for i, t := range sp.targets {
		out[i].Context = t.context
		out[i].Endpoint = t.endpoint
	}
	return out
}

// Owner returns the context the startpoint currently lives in.
func (sp *Startpoint) Owner() *Context { return sp.owner }

// SetFailover enables automatic re-selection: if a send fails, the startpoint
// removes the failed method from its table and retries with the next
// applicable one (the paper's "switch among alternative communication
// substrates in the event of error").
func (sp *Startpoint) SetFailover(on bool) {
	sp.mu.Lock()
	sp.failover = on
	sp.publishLocked()
	sp.mu.Unlock()
}

// Merge adds the links of other startpoints to this one, turning it into a
// multicast startpoint. Duplicate links are ignored.
//
// Each other startpoint is snapshotted under its own lock before sp's lock
// is taken: holding both at once would order the locks sp→other here while a
// concurrent other.Merge(sp) orders them other→sp — the classic deadlock.
func (sp *Startpoint) Merge(others ...*Startpoint) {
	var snap []*target
	for _, o := range others {
		if o == sp {
			continue
		}
		o.mu.Lock()
		for _, t := range o.targets {
			nt := &target{context: t.context, endpoint: t.endpoint}
			if t.table != nil {
				nt.table = t.table.Clone() // clone under o.mu: tables are live
			}
			snap = append(snap, nt)
		}
		o.mu.Unlock()
	}
	sp.mu.Lock()
	defer sp.mu.Unlock()
	for _, nt := range snap {
		if sp.hasTargetLocked(nt.context, nt.endpoint) {
			continue
		}
		sp.targets = append(sp.targets, nt)
	}
	sp.publishLocked()
}

func (sp *Startpoint) hasTargetLocked(ctx transport.ContextID, ep uint64) bool {
	for _, t := range sp.targets {
		if t.context == ctx && t.endpoint == ep {
			return true
		}
	}
	return false
}

// Table returns the descriptor table for the startpoint's single target
// (panics on multicast startpoints — address those per target via TableFor).
// The returned table is live: reordering it changes subsequent automatic
// selection, which is the paper's manual-control mechanism.
func (sp *Startpoint) Table() *transport.Table {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	if len(sp.targets) != 1 {
		panic("core: Table on multi-target startpoint; use TableFor")
	}
	return sp.targets[0].table
}

// TableFor returns the live descriptor table for the link to the given
// context, or nil if no such link (or no table) exists.
func (sp *Startpoint) TableFor(ctx transport.ContextID) *transport.Table {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	for _, t := range sp.targets {
		if t.context == ctx {
			return t.table
		}
	}
	return nil
}

// Method reports the currently selected method for the single-target
// startpoint ("" if selection has not happened yet).
func (sp *Startpoint) Method() string {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	if len(sp.targets) == 0 {
		return ""
	}
	return sp.targets[0].method
}

// MethodFor reports the currently selected method for the link to the given
// context ("" if no such link exists or selection has not happened yet). On
// a multicast startpoint each link degrades and heals independently, so
// different targets may be on different methods at the same time.
func (sp *Startpoint) MethodFor(ctx transport.ContextID) string {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	for _, t := range sp.targets {
		if t.context == ctx {
			return t.method
		}
	}
	return ""
}

// SetMethod manually selects the communication method for every link of the
// startpoint, overriding automatic selection. The method must appear in each
// link's descriptor table and be applicable from the owning context.
func (sp *Startpoint) SetMethod(name string) error {
	sp.mu.Lock()
	defer func() {
		sp.publishLocked()
		sp.mu.Unlock()
	}()
	for _, t := range sp.targets {
		table, err := sp.tableFor(t)
		if err != nil {
			return err
		}
		desc, ok := table.Find(name)
		if !ok {
			return fmt.Errorf("core: method %q not in descriptor table for context %d", name, t.context)
		}
		ms := sp.owner.moduleFor(name)
		if ms == nil {
			return fmt.Errorf("core: %w: %q", ErrUnknownMethod, name)
		}
		if !ms.module.Applicable(desc) {
			return fmt.Errorf("core: method %q not applicable to context %d: %w", name, t.context, ErrNoApplicableMethod)
		}
		if err := sp.bindTarget(t, name, desc, obsv.TraceID{}); err != nil {
			return err
		}
		t.manual = true
	}
	return nil
}

// SelectMethod runs automatic selection now (it otherwise runs lazily on the
// first RSR), returning the method chosen for the first link.
func (sp *Startpoint) SelectMethod() (string, error) {
	sp.mu.Lock()
	defer func() {
		sp.publishLocked()
		sp.mu.Unlock()
	}()
	for _, t := range sp.targets {
		if t.conn != nil {
			continue
		}
		if err := sp.selectTarget(t, obsv.TraceID{}); err != nil {
			return "", err
		}
	}
	if len(sp.targets) == 0 {
		return "", fmt.Errorf("core: startpoint has no links")
	}
	return sp.targets[0].method, nil
}

// tableFor resolves a target's descriptor table, falling back to the owning
// context's registered peer tables for lightweight startpoints.
func (sp *Startpoint) tableFor(t *target) (*transport.Table, error) {
	if t.table != nil {
		return t.table, nil
	}
	pg := sp.owner.peerGen.Load()
	if pt := sp.owner.PeerTable(t.context); pt != nil {
		t.table = pt
		t.fromPeer = true
		t.peerGen = pg
		return pt, nil
	}
	return nil, fmt.Errorf("core: context %d: %w", t.context, ErrNoTable)
}

// selectTarget runs the context's (health-aware) selection policy for one
// link and binds the resulting communication object. tid attributes any dial
// to the RSR that triggered selection. Caller holds sp.mu.
func (sp *Startpoint) selectTarget(t *target, tid obsv.TraceID) error {
	table, err := sp.tableFor(t)
	if err != nil {
		return err
	}
	desc, err := sp.owner.healthSel(sp.owner, table)
	if err != nil {
		return err
	}
	if err := sp.bindTarget(t, desc.Method, desc, tid); err != nil {
		// A failed dial is as much a method failure as a failed send: feed
		// the registry so repeated refusals trip the circuit and selection
		// moves on to the next applicable method.
		sp.owner.health.reportFailure(desc.Method, t.context, err)
		return err
	}
	return nil
}

// bindTarget points the link at a (possibly new) communication object.
// Caller holds sp.mu.
func (sp *Startpoint) bindTarget(t *target, method string, desc transport.Descriptor, tid obsv.TraceID) error {
	if t.conn != nil && t.method == method {
		return nil
	}
	sc, err := sp.owner.acquireConn(desc, tid)
	if err != nil {
		return err
	}
	if t.conn != nil {
		sp.owner.releaseConn(t.conn)
	}
	t.conn = sc
	t.method = method
	t.lat = sp.owner.stageSetFor(method)
	limit := wire.MaxFrameLen
	if ms := sp.owner.moduleFor(method); ms != nil && ms.maxMsg < limit {
		limit = ms.maxMsg
	}
	if dm := desc.MaxMessage(); dm > 0 && dm < limit {
		limit = dm
	}
	t.maxMsg = limit
	t.relayVia = 0
	if rv := desc.Attr(transport.AttrRelay); rv != "" {
		if v, err := strconv.ParseUint(rv, 10, 64); err == nil {
			t.relayVia = v
		}
	}
	t.reportUp.Store(true)
	return nil
}

// RSR performs an asynchronous remote service request on every link of the
// startpoint: the buffer travels to each linked endpoint's context, where the
// named handler is invoked with (endpoint, buffer). RSR returns when the
// frames have been handed to the selected communication methods; it does not
// wait for remote execution.
func (sp *Startpoint) RSR(handler string, b *buffer.Buffer) error {
	err := sp.send(handler, b, nil)
	if err != nil {
		return err
	}
	if sp.owner.pollOnRSR {
		sp.owner.tryPoll()
	}
	return nil
}

// RPCSend describes the RPC header extension for one RSR. It is the
// request/response layer's (internal/rpc) hook into the send path: the frame
// carries wire.FlagRPC with the given extension values, is tagged with the
// given class instead of the startpoint's, and — when tracing is on — reuses
// the given trace id so every frame of one call belongs to one span family
// (a zero Trace draws a fresh id as usual).
type RPCSend struct {
	Ext   wire.RPCExt
	Class Class
	Trace obsv.TraceID
}

// RSRWithRPC is RSR for a frame carrying the RPC correlation extension. The
// extension survives failover resends byte-identically (retried requests keep
// their call id) and is carried on every fragment of an oversize frame.
func (sp *Startpoint) RSRWithRPC(handler string, b *buffer.Buffer, rs RPCSend) error {
	if err := sp.send(handler, b, &rs); err != nil {
		return err
	}
	if sp.owner.pollOnRSR {
		sp.owner.tryPoll()
	}
	return nil
}

// send encodes the RSR frame exactly once into a pooled scratch slice and
// re-addresses it in place per target (wire.PatchDest): header, handler, and
// payload bytes are laid down a single time regardless of fan-out, and the
// payload moves from the buffer into the frame with exactly one copy
// (buffer.EncodeTo). Transports must not retain the frame after Send
// returns (the transport.Conn contract), which is what makes both the
// in-place patching and the scratch recycling sound.
//
// Concurrent sends on one startpoint do not serialize on sp.mu: the link set
// is read from the published snapshot (one atomic load), validated against
// the health registry's generation, and senders synchronize only at the
// transport. The locked slow path (prepare, recoverSend) runs only when the
// snapshot is missing/stale, a probe is due, or a send fails.
func (sp *Startpoint) send(handler string, b *buffer.Buffer, rs *RPCSend) error {
	owner := sp.owner
	mode := owner.obs.mode.Load()
	var tid obsv.TraceID
	var flags byte
	if mode&obsTrace != 0 {
		if rs != nil && rs.Trace != (obsv.TraceID{}) {
			tid = rs.Trace
		} else {
			tid = owner.newTraceID()
		}
		flags = wire.FlagTrace
	}
	cls := wire.Class(sp.class.Load())
	var rext wire.RPCExt
	if rs != nil {
		cls = wire.Class(rs.Class)
		rext = rs.Ext
		flags |= wire.FlagRPC
	}
	flags |= wire.ClassFlags(cls) // ClassNormal adds no bits: default stays v1
	payloadLen := 1               // lone format tag for a nil buffer
	if b != nil {
		payloadLen = b.EncodedLen()
	}
	if payloadLen > owner.maxMsg {
		return fmt.Errorf("core: RSR payload of %d bytes exceeds the context's %d-byte message cap: %w",
			payloadLen, owner.maxMsg, transport.ErrTooLarge)
	}
	snap := sp.snap.Load()
	if snap == nil || !snap.ready ||
		snap.gen != owner.health.Gen() || owner.health.probeDue() {
		// Selection may run inside prepare: publish the payload size first so
		// size-aware policies see the message they are selecting for.
		owner.selSize.Store(int64(payloadLen))
		var err error
		if snap, err = sp.prepare(tid); err != nil {
			return err
		}
	}
	ext := wire.Ext{Trace: [16]byte(tid), RPC: rext}
	for i := range snap.links {
		if snap.links[i].relay {
			// At least one link rides a mesh-installed relay route: stamp the
			// hop budget so forwarders can decrement it and suppress loops.
			// Via is 0 at the originator; the first relay stamps itself.
			// Direct links in the same multicast harmlessly carry the
			// extension too (the frame is encoded once for all links).
			flags |= wire.FlagRelay
			ext.Relay = wire.RelayExt{TTL: owner.relayTTL, Via: 0}
			break
		}
	}
	if fl := owner.flow; fl != nil && len(snap.links) == 1 && cls != wire.ClassControl {
		// Piggyback a due credit grant for the reverse direction of this
		// link on the outbound frame — the no-extra-frame refill path for
		// request/reply traffic. Single-link only (the frame is encoded
		// once for all links), and only when the credited frame stays under
		// the link's limit: fragmentation strips the credit extension.
		l0 := &snap.links[0]
		if l0.method != "" && l0.method != "local" &&
			wire.HeaderLenExt(len(handler), flags|wire.FlagCredit)+payloadLen <= l0.maxMsg {
			if gb, gf, ok := fl.grantor.GrantIfDue(uint64(l0.context), l0.method); ok {
				flags |= wire.FlagCredit
				ext.CreditBytes, ext.CreditFrames = gb, gf
				fl.cGrantsSent.Inc()
			}
		}
	}
	off := wire.HeaderLenExt(len(handler), flags)
	enc := bufpool.Get(off + payloadLen)
	defer bufpool.Put(enc)
	wire.EncodeHeaderExt(enc, wire.TypeRSR, flags,
		uint64(snap.links[0].context), snap.links[0].endpoint, uint64(owner.id),
		ext, handler, payloadLen)
	if b != nil {
		b.EncodeTo(enc[off:])
	} else {
		enc[off] = byte(buffer.NativeFormat)
	}
	var errs []error
	for i := range snap.links {
		l := &snap.links[i]
		wire.PatchDest(enc, uint64(l.context), l.endpoint)
		if l.conn == nil {
			// Selection failed during prepare (failover mode, selErr) —
			// recover under the lock now that the frame exists.
			if l.selErr == nil {
				continue
			}
			if err, fatal := sp.recoverSend(l, enc, handler, flags, rext, off, l.selErr, tid); err != nil {
				if fatal {
					return err
				}
				errs = append(errs, err)
				continue
			}
			owner.cRSRSent.Inc()
			owner.cBytesSent.Add(uint64(len(enc)))
			continue
		}
		if fl := owner.flow; fl != nil && cls != wire.ClassControl && l.method != "local" {
			// Charge the message against this link's credit window before it
			// touches the transport. A fragmenting message debits one frame
			// per fragment; the byte debit is the whole encoding either way.
			nframes := uint64(1)
			if l.maxMsg > 0 && len(enc) > l.maxMsg {
				if chunk := l.maxMsg - wire.HeaderLenExt(len(handler), (flags&^wire.FlagCredit)|wire.FlagFrag); chunk > 0 {
					nframes = uint64((len(enc) - off + chunk - 1) / chunk)
				}
			}
			if !owner.flowAcquire(uint64(l.context), l.method, l.conn.conn, cls, uint64(len(enc)), nframes) {
				owner.shedCounter(cls).Inc()
				errs = append(errs, fmt.Errorf("core: RSR via %s to context %d: %w", l.method, l.context, ErrNoCredit))
				continue
			}
		}
		var t0 time.Time
		if mode&obsStats != 0 {
			t0 = time.Now()
		}
		var serr error
		if l.maxMsg > 0 && len(enc) > l.maxMsg {
			// The frame exceeds this link's method limit: it travels as
			// fragments, reassembled at the receiving context (bulk.go). The
			// split is per link, so the other links of a multicast startpoint
			// still get the single encoded frame if their method carries it.
			serr = sp.fragmentTo(l.conn.conn, l.maxMsg, l.context, l.endpoint, flags, rext, tid, handler, enc[off:])
		} else {
			serr = l.conn.conn.Send(enc)
		}
		if serr != nil {
			if rerr, fatal := sp.recoverSend(l, enc, handler, flags, rext, off, serr, tid); rerr != nil {
				if fatal {
					return rerr
				}
				// Degrade per target: the remaining links still get the
				// frame; the caller sees which targets failed.
				errs = append(errs, rerr)
				continue
			}
		} else {
			if mode&obsStats != 0 {
				d := time.Since(t0)
				if l.lat != nil {
					l.lat.Stage(obsv.StageSend).Record(d)
				}
				if mode&obsTrace != 0 {
					owner.recordEvent(obsv.Event{
						Trace:    tid,
						Stage:    obsv.StageSend,
						Method:   l.method,
						Peer:     uint64(l.context),
						Endpoint: l.endpoint,
						Handler:  handler,
						Dur:      d,
					})
				}
			}
			if l.t.reportUp.CompareAndSwap(true, false) {
				owner.health.reportSuccess(l.method, l.context)
			}
		}
		owner.cRSRSent.Inc()
		owner.cBytesSent.Add(uint64(len(enc)))
	}
	return errors.Join(errs...)
}

// prepare rebuilds the send snapshot under sp.mu: bind unbound links, refresh
// bound ones whose selection is stale — the health registry moved (a circuit
// tripped or healed) or an open circuit's backoff expired and a probe is due.
func (sp *Startpoint) prepare(tid obsv.TraceID) (*sendSnapshot, error) {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	if len(sp.targets) == 0 {
		return nil, fmt.Errorf("core: RSR on unbound startpoint")
	}
	// Re-read the generation under the lock so the snapshot is stamped with
	// the freshest value selection can observe.
	gen := sp.owner.health.Gen()
	probeDue := sp.owner.health.probeDue()
	pg := sp.owner.peerGen.Load()
	for _, t := range sp.targets {
		t.selErr = nil
		if t.fromPeer && t.peerGen != pg && !t.manual {
			// The peer-table set this lightweight link resolved through has
			// moved (gossip refreshed or removed the table): drop the cached
			// table and binding so selection re-resolves against the current
			// set. A removed peer now fails with ErrNoTable instead of
			// sending on stale descriptors.
			t.table = nil
			t.fromPeer = false
			if t.conn != nil {
				sp.owner.releaseConn(t.conn)
				t.conn = nil
				t.method = ""
			}
		}
		if t.conn == nil {
			t.healthGen = gen
			if err := sp.selectTarget(t, tid); err != nil {
				if !sp.failover {
					sp.publishLocked()
					return nil, err
				}
				// With failover on, a failed selection still gets the frame:
				// the send loop retries against the remaining healthy methods
				// once the frame is encoded.
				t.selErr = err
			}
			continue
		}
		if t.healthGen != gen || probeDue {
			sp.refreshTarget(t, gen)
		}
	}
	return sp.publishLocked(), nil
}

// publishLocked rebuilds and stores the atomic send snapshot from the current
// link state. Caller holds sp.mu. Every mutator republishes before unlocking,
// so the lock-free fast path never reads a binding older than the last
// locked operation.
func (sp *Startpoint) publishLocked() *sendSnapshot {
	snap := &sendSnapshot{
		gen:      ^uint64(0),
		ready:    len(sp.targets) > 0,
		failover: sp.failover,
		links:    make([]sendLink, len(sp.targets)),
	}
	for i, t := range sp.targets {
		snap.links[i] = sendLink{
			t:        t,
			context:  t.context,
			endpoint: t.endpoint,
			method:   t.method,
			conn:     t.conn,
			lat:      t.lat,
			maxMsg:   t.maxMsg,
			relay:    t.relayVia != 0,
			selErr:   t.selErr,
		}
		if t.conn == nil || t.selErr != nil {
			snap.ready = false
		}
		if t.healthGen < snap.gen {
			snap.gen = t.healthGen
		}
	}
	sp.snap.Store(snap)
	return snap
}

// recoverSend handles one link's failed (or never-selected) send under sp.mu.
// If the link's binding changed since the snapshot was taken — another sender
// already recovered it — the frame is retried on the fresh communication
// object WITHOUT charging the health registry: the failure indicts the stale
// snapshot, not the current method. Otherwise the failure is reported, the
// poisoned shared conn invalidated, and with failover enabled the
// reselect/redial/resend loop runs. fatal=true keeps non-failover semantics:
// the first real send error aborts the whole RSR.
func (sp *Startpoint) recoverSend(l *sendLink, enc []byte, handler string, flags byte, rext wire.RPCExt, off int, cause error, tid obsv.TraceID) (err error, fatal bool) {
	owner := sp.owner
	sp.mu.Lock()
	defer func() {
		sp.publishLocked()
		sp.mu.Unlock()
	}()
	t := l.t
	if t.conn != nil && t.conn != l.conn {
		// Stale snapshot: retry once on the current binding (size-aware — the
		// fresh binding may have a different frame limit than the stale one).
		serr := sp.sendToTargetLocked(t, enc, handler, flags, rext, off, tid)
		if serr == nil {
			if t.reportUp.CompareAndSwap(true, false) {
				owner.health.reportSuccess(t.method, t.context)
			}
			return nil, false
		}
		// The current binding fails too — charge it below.
		cause = serr
	}
	if t.conn != nil {
		owner.health.reportFailure(t.method, t.context, cause)
		owner.invalidateConn(t.conn)
	}
	if !sp.failover {
		method := t.method
		if method == "" {
			method = l.method
		}
		return fmt.Errorf("core: RSR via %s to context %d: %w", method, t.context, cause), true
	}
	if ferr := sp.failoverTarget(t, enc, handler, flags, rext, off, cause, tid); ferr != nil {
		return fmt.Errorf("core: RSR to context %d: %w", t.context, ferr), false
	}
	return nil, false
}

// Close releases the startpoint's communication objects. The links
// themselves (the remote endpoints) are unaffected.
func (sp *Startpoint) Close() {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	for _, t := range sp.targets {
		if t.conn != nil {
			sp.owner.releaseConn(t.conn)
			t.conn = nil
			t.method = ""
		}
	}
	sp.publishLocked()
}

// Encode packs the startpoint — links and descriptor tables — into the
// buffer, so it can travel inside an RSR and name its endpoints globally.
func (sp *Startpoint) Encode(b *buffer.Buffer) { sp.encode(b, true) }

// EncodeLite packs the startpoint without descriptor tables. The receiving
// context must know the target contexts' tables already (RegisterPeerTable),
// the optimization the paper applies to links within a parallel computer,
// where a default table is used repeatedly and startpoints must stay small.
func (sp *Startpoint) EncodeLite(b *buffer.Buffer) { sp.encode(b, false) }

func (sp *Startpoint) encode(b *buffer.Buffer, withTables bool) {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	b.PutUint16(uint16(len(sp.targets)))
	for _, t := range sp.targets {
		b.PutUint64(uint64(t.context))
		b.PutUint64(t.endpoint)
		if withTables && t.table != nil {
			b.PutBool(true)
			t.table.Encode(b)
		} else {
			b.PutBool(false)
		}
	}
}

// DecodeStartpoint rebuilds a startpoint from a buffer in this context.
// Copying a startpoint this way creates fresh communication links: method
// selection runs anew here, against this context's modules, when the
// startpoint is first used.
func (c *Context) DecodeStartpoint(b *buffer.Buffer) (*Startpoint, error) {
	n := int(b.Uint16())
	if err := b.Err(); err != nil {
		return nil, fmt.Errorf("core: decoding startpoint: %w", err)
	}
	sp := &Startpoint{owner: c}
	for i := 0; i < n; i++ {
		t := &target{
			context:  transport.ContextID(b.Uint64()),
			endpoint: b.Uint64(),
		}
		if b.Bool() {
			table, err := transport.DecodeTable(b)
			if err != nil {
				return nil, fmt.Errorf("core: decoding startpoint target %d: %w", i, err)
			}
			t.table = table
		}
		if err := b.Err(); err != nil {
			return nil, fmt.Errorf("core: decoding startpoint target %d: %w", i, err)
		}
		sp.targets = append(sp.targets, t)
	}
	return sp, nil
}

// NewStartpointTo builds a startpoint addressing an explicit (context,
// endpoint) pair, with an optional descriptor table. With a nil table the
// startpoint is lightweight: it resolves through the context's registered
// peer tables on first use, exactly like a startpoint decoded from a
// table-less encoding. The gossip agent uses this to address a peer's
// agent endpoint straight from a registry record, without the peer ever
// shipping a startpoint out of band.
func (c *Context) NewStartpointTo(ctx transport.ContextID, ep uint64, table *transport.Table) *Startpoint {
	t := &target{context: ctx, endpoint: ep}
	if table != nil {
		t.table = table.Clone()
	}
	return &Startpoint{owner: c, targets: []*target{t}}
}

// TransferStartpoint copies a startpoint into another context through the
// standard encode/decode path, exactly as if it had been carried inside an
// RSR. It is a convenience for single-process machines, where the "transfer"
// needs no network hop.
func TransferStartpoint(sp *Startpoint, dst *Context) (*Startpoint, error) {
	b := buffer.New(256)
	sp.Encode(b)
	dec, err := buffer.FromBytes(b.Encode())
	if err != nil {
		return nil, err
	}
	return dst.DecodeStartpoint(dec)
}

func (sp *Startpoint) String() string {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	if len(sp.targets) == 1 {
		t := sp.targets[0]
		return fmt.Sprintf("startpoint(ctx=%d, ep=%d, method=%q)", t.context, t.endpoint, t.method)
	}
	return fmt.Sprintf("startpoint(%d links)", len(sp.targets))
}
