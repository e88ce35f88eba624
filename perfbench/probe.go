package main

import (
	"errors"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"crfs/internal/client"
	"crfs/internal/codec"
	"crfs/internal/obs"
	"crfs/internal/stripe"
	"crfs/internal/vfs"
)

// probe holds the benchmark's own instrumentation of the layers it calls.
// Calls and bytes are counted in every round; durations are taken, and
// spans recorded, only while the benchmark's tracer is enabled (the
// traced rounds of a --trace 1 run). The program's own tracer
// (obs.Default) is never enabled.
type probe struct {
	tracer *obs.Tracer

	// osfs counts every backend call of every wrapped osfs in the run.
	osfsWriteCalls, osfsWriteBytes, osfsWriteNs atomic.Int64
	osfsReadCalls, osfsReadNs                   atomic.Int64
	// serverOsfsWriteNs is the share of osfsWriteNs spent under the
	// in-process daemons' mounts.
	serverOsfsWriteNs atomic.Int64

	encodeCalls, encodeNs atomic.Int64

	coreWriteNs, coreReadNs, coreOpenNs, coreCloseNs atomic.Int64

	clientPuts, clientGets, clientErrors atomic.Int64
	// nodeBusyNs sums, over stripe nodes, the time each had at least one
	// call in flight; stripeWallNs sums the Put and Get phases' wall time.
	nodeBusyNs, stripeWallNs atomic.Int64

	osfsWriteLat, putLat, getLat samples
}

func newProbe() *probe { return &probe{tracer: obs.New(1 << 16)} }

// call times one application-visible call. The duration is always
// returned, for the end-to-end latencies; while tracing, the call is also
// a span and its duration is added to busy (when non-nil).
func (p *probe) call(name string, parent obs.SpanContext, busy *atomic.Int64, fn func() error) (time.Duration, error) {
	sp := p.tracer.StartChild(name, parent)
	t0 := time.Now()
	err := fn()
	d := time.Since(t0)
	if sp.Active() {
		sp.End()
		if busy != nil {
			busy.Add(int64(d))
		}
	}
	return d, err
}

// stopwatch is one timed call: a span in the benchmark's tracer plus the
// elapsed time. The zero value (timing off) measures nothing.
type stopwatch struct {
	sp obs.Span
	t0 time.Time
}

func (p *probe) start(name string, parent obs.SpanContext) stopwatch {
	if !p.tracer.Enabled() {
		return stopwatch{}
	}
	return stopwatch{sp: p.tracer.StartChild(name, parent), t0: time.Now()}
}

// stop ends the span and returns the call's duration, 0 when not timing.
func (s *stopwatch) stop() time.Duration {
	if !s.sp.Active() {
		return 0
	}
	d := time.Since(s.t0)
	s.sp.End()
	return d
}

// tally snapshots the probe's counters; deltas of two snapshots give one
// round's work.
func (p *probe) tally() tally {
	return tally{
		"osfs.write_calls":     p.osfsWriteCalls.Load(),
		"osfs.write_bytes":     p.osfsWriteBytes.Load(),
		"osfs.write_ns":        p.osfsWriteNs.Load(),
		"osfs.read_calls":      p.osfsReadCalls.Load(),
		"osfs.read_ns":         p.osfsReadNs.Load(),
		"server.osfs_write_ns": p.serverOsfsWriteNs.Load(),
		"codec.encode_calls":   p.encodeCalls.Load(),
		"codec.encode_ns":      p.encodeNs.Load(),
		"core.write_ns":        p.coreWriteNs.Load(),
		"core.read_ns":         p.coreReadNs.Load(),
		"core.open_ns":         p.coreOpenNs.Load(),
		"core.close_ns":        p.coreCloseNs.Load(),
		"client.put_calls":     p.clientPuts.Load(),
		"client.get_calls":     p.clientGets.Load(),
		"client.errors":        p.clientErrors.Load(),
		"stripe.node_busy_ns":  p.nodeBusyNs.Load(),
		"stripe.wall_ns":       p.stripeWallNs.Load(),
	}
}

// tally is a set of named cumulative counters.
type tally map[string]int64

func (t tally) sub(u tally) tally {
	d := make(tally, len(t))
	for k, v := range t {
		d[k] = v - u[k]
	}
	return d
}

func (t tally) add(u tally) {
	for k, v := range u {
		t[k] += v
	}
}

// samples collects per-call durations from concurrent goroutines.
type samples struct {
	mu sync.Mutex
	ns []int64
}

func (s *samples) add(d time.Duration) {
	s.mu.Lock()
	s.ns = append(s.ns, int64(d))
	s.mu.Unlock()
}

func (s *samples) snapshot() []int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]int64(nil), s.ns...)
}

// quantile returns the q-quantile (nearest rank) of ns, sorting it in
// place; 0 for no samples.
func quantile(ns []int64, q float64) float64 {
	if len(ns) == 0 {
		return 0
	}
	sort.Slice(ns, func(i, j int) bool { return ns[i] < ns[j] })
	i := int(q*float64(len(ns))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(ns) {
		i = len(ns) - 1
	}
	return float64(ns[i])
}

// backend is the benchmark's pass-through wrapper around an osfs
// directory. It counts every call, times calls while the probe is timing,
// and can add a fixed latency to every read, the shape of a slow
// restart store. It forwards vfs.Syncer, which core.FS.SyncAll asserts.
type backend struct {
	vfs.FS
	p           *probe
	readLatency time.Duration
	daemon      bool // under an in-process crfsd: also feeds server.*
}

func (b *backend) Open(name string, flag vfs.OpenFlag) (vfs.File, error) {
	f, err := b.FS.Open(name, flag)
	if err != nil {
		return nil, err
	}
	return &backendFile{File: f, b: b}, nil
}

// SyncAll implements vfs.Syncer by forwarding to the wrapped filesystem
// when it has a whole-filesystem flush.
func (b *backend) SyncAll() error {
	if s, ok := b.FS.(vfs.Syncer); ok {
		return s.SyncAll()
	}
	return nil
}

type backendFile struct {
	vfs.File
	b *backend
}

func (f *backendFile) WriteAt(buf []byte, off int64) (int, error) {
	p := f.b.p
	sw := p.start("osfs.write", obs.SpanContext{})
	n, err := f.File.WriteAt(buf, off)
	if d := sw.stop(); d > 0 {
		p.osfsWriteNs.Add(int64(d))
		p.osfsWriteLat.add(d)
		if f.b.daemon {
			p.serverOsfsWriteNs.Add(int64(d))
		}
	}
	p.osfsWriteCalls.Add(1)
	p.osfsWriteBytes.Add(int64(n))
	return n, err
}

func (f *backendFile) ReadAt(buf []byte, off int64) (int, error) {
	p := f.b.p
	sw := p.start("osfs.read", obs.SpanContext{})
	if f.b.readLatency > 0 {
		time.Sleep(f.b.readLatency)
	}
	n, err := f.File.ReadAt(buf, off)
	p.osfsReadNs.Add(int64(sw.stop()))
	p.osfsReadCalls.Add(1)
	return n, err
}

// timedCodec wraps a codec to count and time Encode. It keeps the
// wrapped codec's ID, so containers it writes still decode through
// codec.ByID. Decode is not timed: reads decode through the registered
// codec, never through the mount's.
type timedCodec struct {
	codec.Codec
	p *probe
}

func (c timedCodec) Encode(dst, src []byte) ([]byte, error) {
	sw := c.p.start("codec.encode", obs.SpanContext{})
	//crfsvet:ignore pass-through timing wrapper installed as the mount's codec: core frames and checksums around this call
	out, err := c.Codec.Encode(dst, src)
	c.p.encodeNs.Add(int64(sw.stop()))
	c.p.encodeCalls.Add(1)
	return out, err
}

// node is a stripe.Node over one protocol-v2 client connection that
// counts and times the client calls the striped store makes.
type node struct {
	id string
	c  *client.Client
	p  *probe

	mu       sync.Mutex
	inFlight int
	since    time.Time
}

func (n *node) ID() string { return n.id }

// enter and leave keep the node's busy clock: time with a call in flight.
func (n *node) enter() {
	n.mu.Lock()
	if n.inFlight == 0 {
		n.since = time.Now()
	}
	n.inFlight++
	n.mu.Unlock()
}

func (n *node) leave() {
	n.mu.Lock()
	n.inFlight--
	if n.inFlight == 0 {
		n.p.nodeBusyNs.Add(int64(time.Since(n.since)))
	}
	n.mu.Unlock()
}

func (n *node) Put(name string, r io.Reader, size int64) error {
	n.enter()
	sw := n.p.start("client.put", obs.SpanContext{})
	err := n.c.Put(name, r, size)
	if d := sw.stop(); d > 0 {
		n.p.putLat.add(d)
	}
	n.leave()
	n.p.clientPuts.Add(1)
	if err != nil {
		n.p.clientErrors.Add(1)
	}
	return err
}

func (n *node) Get(name string, w io.Writer) (int64, error) {
	n.enter()
	sw := n.p.start("client.get", obs.SpanContext{})
	nn, err := n.c.Get(name, w)
	if d := sw.stop(); d > 0 {
		n.p.getLat.add(d)
	}
	n.leave()
	n.p.clientGets.Add(1)
	if err != nil {
		n.p.clientErrors.Add(1)
	}
	// The wire carries error strings; absence is normalized here so the
	// store can tell a missing replica from an unreachable node.
	var re *client.RemoteError
	if errors.As(err, &re) && strings.Contains(re.Msg, "not exist") {
		return nn, errors.Join(err, stripe.ErrNotExist)
	}
	return nn, err
}

func (n *node) Delete(name string) error { return n.c.Delete(name) }
func (n *node) List() ([]string, error)  { return n.c.List() }
func (n *node) Close() error             { return n.c.Close() }
