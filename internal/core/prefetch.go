package core

import (
	"io"
	"sort"
	"sync"
	"time"

	"crfs/internal/codec"
	"crfs/internal/obs"
)

// Restart read pipeline: sequential-read detection on a file handle
// triggers read-ahead of the next chunks (plain files) or frames
// (containers), fetched and decoded in parallel on the same IO worker
// pool that drains the write queue. Completed prefetches are cached
// per-entry and served as the durable *base* of the buffered-read-through
// overlay — in-flight and active chunks still win over prefetched bytes,
// exactly as they win over backend bytes.
//
// Correctness hinges on two rules:
//
//  1. Generation invalidation. Every mutation of the entry — write,
//     truncate, container reset, rename, and, decisively, every chunk
//     *retirement* (the moment the overlay hands an extent's authority
//     to the durable base) — bumps the prefetch generation and drops
//     the cache. A job captures the generation at schedule time and
//     publishes only if it is unchanged, so a fetch that raced a
//     mutation is discarded, never served. The retirement bump is the
//     one that makes the rule airtight: a job scheduled inside write()'s
//     own window (generation already bumped, payload not yet buffered)
//     can fetch and publish pre-write bytes, but they die no later than
//     the moment the write's chunk leaves the overlay.
//  2. Clean-pipeline fetch. A job fetches backend bytes only while the
//     entry's write pipeline is fully drained (no active or in-flight
//     chunks); fetching alongside buffered writes would only produce
//     blocks that rule 1 is about to discard.
//
// Plain-file blocks are fetched into buffer-pool chunks taken with the
// non-blocking tryGet — prefetch never steals buffers from a blocked
// writer, and pool pressure reclaims the read-ahead cache (dropPrefetched)
// before any writer can deadlock. Decoded frames live on the heap, like
// the one-frame decode cache they feed.

// seqThreshold is how many back-to-back sequential reads a handle must
// issue before read-ahead starts.
const seqThreshold = 2

// prefetched is one completed read-ahead extent in an entry's cache.
type prefetched struct {
	start int64  // logical offset of buf[0]
	buf   []byte // prefetched bytes (never mutated once published)
	c     *chunk // pool chunk backing buf; nil for decoded frames (heap)
	hit   bool   // served at least one read (distinguishes wasted fetches)
}

// prefetcher holds one entry's read-ahead state. Its mutex is a leaf
// lock: it is never held while acquiring entry.mu, fs.mu, or decMu.
type prefetcher struct {
	fs *FS
	e  *fileEntry

	mu      sync.Mutex
	cond    *sync.Cond              // broadcast whenever ready/pending change
	gen     uint64                  // bumped by invalidate; stale jobs don't publish
	ready   map[int64]*prefetched   // completed fetches, keyed by block start (plain) or frame pos (framed)
	order   []int64                 // ready keys in publish order, for FIFO capacity eviction
	pending map[int64]*pendingFetch // keys with a job scheduled but not yet published
}

// pendingFetch tracks one scheduled job. started flips when a worker
// picks the job up: readers wait only for started fetches (bounded by
// one backend round-trip / decode) and *steal* unstarted ones — a job
// starved behind a sustained checkpoint write stream must never turn
// read-ahead into a read dependency. A stolen job is cancelled: the
// worker finds its pending marker gone and skips the fetch entirely.
type pendingFetch struct {
	started bool
}

func newPrefetcher(fs *FS, e *fileEntry) *prefetcher {
	pf := &prefetcher{
		fs:      fs,
		e:       e,
		ready:   make(map[int64]*prefetched),
		pending: make(map[int64]*pendingFetch),
	}
	pf.cond = sync.NewCond(&pf.mu)
	return pf
}

// depth returns the configured read-ahead depth (chunks/frames).
func (pf *prefetcher) depth() int { return pf.fs.opts.ReadAhead }

// invalidate drops every cached and in-flight prefetch of the entry:
// jobs already scheduled will see the bumped generation and discard
// their fetch instead of publishing it. The pending set is cleared too —
// readers must not keep waiting on jobs that may never run again (the
// workers drain the write queue first, and at unmount they stop) — so a
// waiting reader wakes and falls back to its own synchronous fetch.
func (pf *prefetcher) invalidate() {
	pf.mu.Lock()
	pf.gen++
	var wasted int64
	for _, pr := range pf.ready {
		if !pr.hit {
			wasted++
		}
		if pr.c != nil {
			pr.c.unpin()
		}
	}
	clear(pf.ready)
	clear(pf.pending)
	pf.order = pf.order[:0]
	pf.cond.Broadcast()
	pf.mu.Unlock()
	if wasted > 0 {
		pf.fs.stats.prefetchWasted.Add(wasted)
	}
}

// schedule plans read-ahead past a sequential read that ended at from,
// enqueueing up to depth() block- or frame-fetch jobs on the IO workers.
// ctx parents the resulting fetch spans (zero when tracing is off).
// Called with no locks held.
func (pf *prefetcher) schedule(from int64, ctx obs.SpanContext) {
	e := pf.e
	e.mu.Lock()
	framed := e.framed
	size := e.logicalSize
	var locs []codec.FrameInfo
	if framed {
		locs = e.nextFramesLocked(from, pf.depth())
	}
	e.mu.Unlock()

	var jobs []prefetchJob
	pf.mu.Lock()
	gen := pf.gen
	if framed {
		for _, fr := range locs {
			if len(pf.pending) >= pf.depth() {
				break
			}
			if _, ok := pf.ready[fr.Pos]; ok {
				continue
			}
			if _, ok := pf.pending[fr.Pos]; ok {
				continue
			}
			pf.pending[fr.Pos] = &pendingFetch{}
			jobs = append(jobs, prefetchJob{e: e, gen: gen, key: fr.Pos, framed: true, fr: fr, ctx: ctx})
		}
	} else {
		bs := pf.fs.opts.ChunkSize
		first := ((from + bs - 1) / bs) * bs // first whole block past the read
		for b := first; b < first+int64(pf.depth())*bs && b < size; b += bs {
			if len(pf.pending) >= pf.depth() {
				break
			}
			if _, ok := pf.ready[b]; ok {
				continue
			}
			if _, ok := pf.pending[b]; ok {
				continue
			}
			pf.pending[b] = &pendingFetch{}
			jobs = append(jobs, prefetchJob{e: e, gen: gen, key: b, n: bs, ctx: ctx})
		}
	}
	pf.mu.Unlock()
	for _, j := range jobs {
		if !pf.fs.enqueuePrefetch(j) {
			pf.drop(j.key)
		}
	}
}

// nextFramesLocked returns up to n frames starting at or past from, in
// index (offset) order — the frames a sequential reader will decode
// next. A frame already straddling from is excluded: the reader decoded
// it to get here, and it lives in the one-frame decode cache, so
// re-fetching it would only produce a wasted duplicate. Pad frames
// (RawLen 0) are skipped. Caller holds e.mu.
func (e *fileEntry) nextFramesLocked(from int64, n int) []codec.FrameInfo {
	lo := sort.Search(len(e.frames), func(i int) bool {
		return e.frames[i].Header.Off >= from
	})
	out := make([]codec.FrameInfo, 0, n)
	for i := lo; i < len(e.frames) && len(out) < n; i++ {
		if fr := e.frames[i]; fr.Header.RawLen > 0 {
			out = append(out, fr)
		}
	}
	return out
}

// drop removes a pending marker (job skipped or failed), releasing any
// reader waiting for that key to duplicate the fetch itself.
func (pf *prefetcher) drop(key int64) {
	pf.mu.Lock()
	delete(pf.pending, key)
	pf.cond.Broadcast()
	pf.mu.Unlock()
}

// publish installs a completed fetch, unless the generation moved while
// the job ran — then the bytes are discarded as wasted. The cache is
// capped at twice the depth; overflow evicts the oldest entry.
func (pf *prefetcher) publish(key int64, pr *prefetched, gen uint64) {
	pf.mu.Lock()
	delete(pf.pending, key)
	if gen != pf.gen {
		pf.cond.Broadcast()
		pf.mu.Unlock()
		if pr.c != nil {
			pr.c.unpin()
		}
		pf.fs.stats.prefetchWasted.Add(1)
		return
	}
	if old, ok := pf.ready[key]; ok {
		// Shouldn't happen (pending excludes re-schedule), but never leak.
		if old.c != nil {
			old.c.unpin()
		}
	} else {
		pf.order = append(pf.order, key)
	}
	pf.ready[key] = pr
	var wasted int64
	for len(pf.order) > 2*pf.depth() {
		k := pf.order[0]
		pf.order = pf.order[1:]
		if old, ok := pf.ready[k]; ok {
			if !old.hit {
				wasted++
			}
			if old.c != nil {
				old.c.unpin()
			}
			delete(pf.ready, k)
		}
	}
	pf.cond.Broadcast()
	pf.mu.Unlock()
	pf.fs.stats.prefetchBytes.Add(int64(len(pr.buf)))
	if wasted > 0 {
		pf.fs.stats.prefetchWasted.Add(wasted)
	}
}

// removeLocked deletes key from ready and order. Caller holds pf.mu.
func (pf *prefetcher) removeLocked(key int64) {
	delete(pf.ready, key)
	for i, k := range pf.order {
		if k == key {
			pf.order = append(pf.order[:i], pf.order[i+1:]...)
			break
		}
	}
}

// readBase fills p (at logical offset off) for a plain entry, serving
// each chunk-aligned segment from the read-ahead cache when present and
// from the backend otherwise. It preserves readPlainInto's contract:
// bytes the backend does not have read as zeros.
func (pf *prefetcher) readBase(p []byte, off int64) error {
	bs := pf.fs.opts.ChunkSize
	end := off + int64(len(p))
	for cur := off; cur < end; {
		bstart := cur - cur%bs
		segEnd := min(bstart+bs, end)
		seg := p[cur-off : segEnd-off]
		if !pf.copyPlain(seg, cur, bstart) {
			n, err := pf.e.backendFile.ReadAt(seg, cur)
			if err != nil && err != io.EOF {
				return err
			}
			clear(seg[n:])
		}
		cur = segEnd
	}
	return nil
}

// copyPlain serves seg (logical offset cur, inside the block starting at
// bstart) from the cache. A block a worker is actively fetching is
// awaited rather than refetched — duplicating the backend read would
// waste exactly the bandwidth read-ahead is trying to overlap — but a
// job still queued is stolen (awaitOrSteal) so a starved queue never
// blocks a read. A block whose fetch stopped short of the segment
// (backend EOF at fetch time) is a miss: the backend read is the
// authority on bytes the fetch did not capture. A segment that reaches
// the end of the cached block consumes it — sequential readers pass
// each block exactly once, so keeping it would only displace fresh
// blocks.
func (pf *prefetcher) copyPlain(seg []byte, cur, bstart int64) bool {
	pf.mu.Lock()
	pr, ok := pf.ready[bstart]
	for !ok {
		if !pf.awaitOrStealLocked(bstart) {
			pf.mu.Unlock()
			pf.fs.stats.prefetchMisses.Add(1)
			return false
		}
		pr, ok = pf.ready[bstart]
	}
	if cur+int64(len(seg)) > pr.start+int64(len(pr.buf)) {
		pf.mu.Unlock()
		pf.fs.stats.prefetchMisses.Add(1)
		return false
	}
	pr.hit = true
	consumed := cur+int64(len(seg)) == pr.start+int64(len(pr.buf))
	if consumed {
		pf.removeLocked(bstart)
	}
	// Pin for the copy while the entry is still reachable (cache ref held
	// or just transferred to us); the buffer cannot recycle under the copy.
	if pr.c != nil && !consumed {
		pr.c.pin()
	}
	pf.mu.Unlock()
	copy(seg, pr.buf[cur-pr.start:])
	if pr.c != nil {
		pr.c.unpin() // reader pin, or the cache ref if consumed
	}
	pf.fs.stats.prefetchHits.Add(1)
	return true
}

// takeFrame removes and returns a prefetched decoded frame, or nil. A
// frame actively decoding on a worker is awaited — a synchronous
// duplicate decode of a multi-megabyte frame costs far more CPU than
// the wait — while a job still queued is stolen so a starved queue
// never blocks a read. Decoded frames are heap buffers and immutable,
// so ownership transfers to the caller (typically into the entry's
// one-frame decode cache).
func (pf *prefetcher) takeFrame(pos int64) []byte {
	pf.mu.Lock()
	for {
		if pr, ok := pf.ready[pos]; ok {
			pr.hit = true
			pf.removeLocked(pos)
			pf.mu.Unlock()
			pf.fs.stats.prefetchHits.Add(1)
			return pr.buf
		}
		if !pf.awaitOrStealLocked(pos) {
			pf.mu.Unlock()
			pf.fs.stats.prefetchMisses.Add(1)
			return nil
		}
	}
}

// awaitOrStealLocked resolves a reader's encounter with a possibly
// pending key: no pending job means a plain miss (false); a started job
// is awaited (one cond wait, then the caller re-checks); an unstarted
// job — still queued behind write chunks, possibly for a long time — is
// cancelled by removing its marker, so the reader fetches synchronously
// and the worker later skips the job. Returns true when the caller
// should re-check ready/pending. Caller holds pf.mu.
func (pf *prefetcher) awaitOrStealLocked(key int64) bool {
	ps, ok := pf.pending[key]
	if !ok {
		return false
	}
	if !ps.started {
		delete(pf.pending, key)
		pf.cond.Broadcast()
		return false
	}
	pf.cond.Wait()
	return true
}

// prefetchJob is one read-ahead unit handed to the IO workers: a
// chunk-aligned backend block (plain entries) or one frame to fetch and
// decode (containers).
type prefetchJob struct {
	e      *fileEntry
	gen    uint64 // prefetch generation at schedule time
	key    int64  // cache key: block start (plain) or frame pos (framed)
	n      int64  // plain: block length to fetch
	framed bool
	fr     codec.FrameInfo // framed: the frame to decode

	enqueuedAt int64           // UnixNano at enqueue, for queue-wait dwell
	ctx        obs.SpanContext // parents the fetch span under the triggering read
}

// runPrefetch executes one job on an IO worker. The job first claims its
// pending marker (a reader may have stolen it while the job queued
// behind write chunks — then the fetch is skipped entirely); the fetch
// starts only if the entry's write pipeline is clean (see the package
// comment's rule 2) and publishes only if the generation is unchanged
// (rule 1).
func (fs *FS) runPrefetch(j prefetchJob) {
	if j.enqueuedAt != 0 {
		fs.hist.queueWaitPrefetch.Observe(time.Now().UnixNano() - j.enqueuedAt)
	}
	var sp obs.Span
	if fs.tracer.Enabled() {
		sp = fs.tracer.StartChild("crfs.prefetch", j.ctx)
		sp.AttrInt("key", j.key)
		defer sp.End()
	}
	pf := j.e.pf
	e := j.e
	pf.mu.Lock()
	ps, ok := pf.pending[j.key]
	if !ok || pf.gen != j.gen {
		pf.mu.Unlock()
		return // stolen by a reader, or invalidated while queued
	}
	ps.started = true
	pf.mu.Unlock()
	e.mu.Lock()
	clean := e.doneChunks == e.writeChunks && (e.active == nil || e.active.fill.Load() == 0)
	// Snapshot the handle under mu: compaction can swap it, and a stale
	// snapshot must keep pointing at an open (retired) handle. A fetch
	// that raced the swap publishes nothing — the swap bumped the
	// generation.
	bf := e.backendFile
	e.mu.Unlock()
	if !clean {
		pf.drop(j.key)
		return
	}
	if j.framed {
		raw, err := fs.readFrame(bf, j.fr)
		if err != nil {
			pf.drop(j.key)
			return
		}
		pf.publish(j.key, &prefetched{start: j.fr.Header.Off, buf: raw}, j.gen)
		return
	}
	c := fs.pool.tryGet()
	if c == nil {
		// Pool exhausted by writers: read-ahead yields rather than compete.
		pf.drop(j.key)
		return
	}
	n, err := bf.ReadAt(c.buf[:j.n], j.key)
	if (err != nil && err != io.EOF) || n == 0 {
		c.unpin()
		pf.drop(j.key)
		return
	}
	pf.publish(j.key, &prefetched{start: j.key, buf: c.buf[:n], c: c}, j.gen)
}

// dropPrefetched evicts every open entry's pool-chunk-backed prefetches,
// returning their buffers. Called under buffer-pool pressure: checkpoint
// writes outrank restart read-ahead for pool buffers. It runs every
// reclaim tick of a blocked writer, so it must free only what actually
// competes for the pool: decoded frames live on the heap and are left
// alone (wiping them would repeatedly destroy container read-ahead
// while freeing zero buffers), and the generation is not bumped — the
// evicted entries were valid, just expensive to keep.
func (fs *FS) dropPrefetched() {
	fs.mu.Lock()
	entries := make([]*fileEntry, 0, len(fs.files))
	for _, e := range fs.files {
		if e.pf != nil {
			entries = append(entries, e)
		}
	}
	fs.mu.Unlock()
	for _, e := range entries {
		e.pf.releasePooled()
	}
}

// releasePooled evicts the cache's pool-chunk-backed entries only.
func (pf *prefetcher) releasePooled() {
	pf.mu.Lock()
	var wasted int64
	kept := pf.order[:0]
	for _, k := range pf.order {
		pr, ok := pf.ready[k]
		if !ok {
			continue
		}
		if pr.c == nil {
			kept = append(kept, k)
			continue
		}
		if !pr.hit {
			wasted++
		}
		pr.c.unpin()
		delete(pf.ready, k)
	}
	pf.order = kept
	pf.cond.Broadcast()
	pf.mu.Unlock()
	if wasted > 0 {
		pf.fs.stats.prefetchWasted.Add(wasted)
	}
}

// enqueuePrefetch hands a job to the IO workers without blocking: a full
// queue (or an unmounted filesystem) drops the job — read-ahead is an
// optimization, never a dependency.
func (fs *FS) enqueuePrefetch(j prefetchJob) (ok bool) {
	defer func() {
		// Unmount closes the queue; a racing schedule must not crash.
		if recover() != nil {
			ok = false
		}
	}()
	j.enqueuedAt = time.Now().UnixNano()
	select {
	case fs.prefetchq <- j:
		return true
	default:
		return false
	}
}
