// Package core implements CRFS, the Checkpoint-Restart Filesystem of
// Ouyang et al. (ICPP 2011), as a real, concurrent, stackable user-level
// filesystem library.
//
// CRFS mounts over any vfs.FS backend. It intercepts writes and aggregates
// them into large fixed-size chunks drawn from a bounded buffer pool; full
// chunks are handed to a work queue drained by a small pool of IO worker
// goroutines that issue large asynchronous writes to the backend, throttling
// backend concurrency (§IV of the paper). close() and fsync() block until
// every outstanding chunk of the file has landed. Metadata operations pass
// through, and with the default raw codec CRFS never changes file layout,
// so a file written through CRFS can be read directly from the backend
// after close. Reads through the mount are read-your-writes at all times:
// buffered and in-flight chunks are overlaid onto the durable bytes
// without draining the pipeline.
package core

import (
	"errors"
	"fmt"
	"time"

	"crfs/internal/codec"
	"crfs/internal/obs"
)

// Defaults chosen by the paper's evaluation (§V-B): a 16 MB buffer pool of
// 4 MB chunks drained by 4 IO threads saturates a node's checkpoint streams
// while bounding memory.
const (
	DefaultBufferPoolSize = 16 << 20
	DefaultChunkSize      = 4 << 20
	DefaultIOThreads      = 4
)

// Options configures a CRFS mount. The zero value selects the paper's
// defaults.
type Options struct {
	// BufferPoolSize is the total size in bytes of the chunk buffer pool
	// allocated at mount time. Defaults to 16 MB.
	BufferPoolSize int64
	// ChunkSize is the size in bytes of each aggregation chunk. Defaults
	// to 4 MB. The pool holds BufferPoolSize/ChunkSize chunks (at least
	// one).
	ChunkSize int64
	// IOThreads is the number of IO worker goroutines draining the work
	// queue; it throttles concurrent writes reaching the backend.
	// Defaults to 4.
	IOThreads int
	// SyncOnClose additionally calls Sync on the backend file during
	// Close, after all chunks have landed. The paper's CRFS does not
	// (checkpoint time excludes backend page-cache flush); off by default.
	SyncOnClose bool
	// ReadAhead enables the restart read pipeline and sets its depth: a
	// file handle detected reading sequentially triggers prefetch of the
	// next ReadAhead chunks (plain files) or frames (containers), fetched
	// and decoded in parallel on the IO workers and served to subsequent
	// reads from a per-file cache. 0 (the default) disables read-ahead
	// and keeps the seed read path byte-identical. Prefetched bytes are
	// invalidated by writes, truncates, and renames, and buffered writes
	// always shadow them (the overlay-wins rule), so enabling read-ahead
	// never changes read results — only their cost.
	ReadAhead int
	// RepairOnOpen makes the first open of a frame container with a torn
	// tail (a crash mid-append) rewrite the file: the backend is
	// truncated to the longest intact frame prefix — exactly the bytes
	// reads would serve anyway — so the damage is cleared once instead of
	// re-salvaged on every remount. Off by default: salvage then serves
	// reads from the intact prefix without mutating the backend, and
	// appends overwrite the torn tail in place. Either way, data the
	// application never had acknowledged by Sync or Close is all that can
	// be dropped.
	RepairOnOpen bool
	// Codec selects the chunk codec IO workers apply before the backend
	// write. nil or the raw codec selects passthrough: chunks land
	// verbatim at their file offsets and backend output is byte-identical
	// to a codec-less mount. Any other codec makes each file written
	// through the mount a self-describing frame container (see
	// internal/codec): chunks are encoded in parallel on the IO workers,
	// incompressible chunks fall back to raw frames, and reads through
	// any CRFS mount decode containers transparently.
	Codec codec.Codec
	// Compaction enables online container compaction and sets its
	// trigger policy. The zero value disables it, keeping every prior
	// mount behavior byte-identical.
	Compaction CompactionPolicy
	// Tracer receives the mount's pipeline spans (write/read/sync, chunk
	// seal, encode, backend write, prefetch, scrub/compact). nil selects
	// the process-wide obs.Default tracer, which starts disabled — the
	// per-span cost is then one atomic load. Latency histograms are
	// independent of the tracer and always on.
	Tracer *obs.Tracer
}

// CompactionPolicy configures online container compaction. Containers
// are log-structured and last-writer-wins: overwrites append new frames
// and the superseded ones stay on the backend, so rewrite-heavy
// checkpoint workloads amplify space without bound. When enabled, the
// mount checks each framed file's dead-byte accounting after every Sync
// and writable Close (and, with Interval set, periodically) and rewrites
// containers past the thresholds to their minimal equivalent via a
// crash-safe temp-write + rename replace. Compaction never changes what
// reads return — only the container bytes that back them.
type CompactionPolicy struct {
	// MinDeadRatio triggers compaction when the reclaimable fraction of
	// a container (dead frame bytes plus unrepaired torn junk, over the
	// backend file size) reaches it. <= 0 disables compaction entirely;
	// explicit FS.Compact calls work regardless.
	MinDeadRatio float64
	// MinDeadBytes additionally requires at least this many reclaimable
	// bytes, so tiny containers are not churned for a handful of bytes.
	MinDeadBytes int64
	// Interval, when positive, starts a background goroutine that
	// re-checks every open framed file against the policy at this
	// cadence — catching long-lived handles that overwrite heavily but
	// rarely Sync. The goroutine stops at Unmount.
	Interval time.Duration
}

// enabled reports whether policy-driven compaction is on.
func (p CompactionPolicy) enabled() bool { return p.MinDeadRatio > 0 }

// due reports whether a container with the given reclaimable bytes out
// of total backend bytes crosses the policy thresholds.
func (p CompactionPolicy) due(reclaimable, total int64) bool {
	if !p.enabled() || total <= 0 || reclaimable <= 0 || reclaimable < p.MinDeadBytes {
		return false
	}
	return float64(reclaimable)/float64(total) >= p.MinDeadRatio
}

// framedWrites reports whether new files are written as frame containers.
func (o Options) framedWrites() bool {
	return o.Codec != nil && o.Codec.ID() != codec.RawID
}

func (o Options) withDefaults() (Options, error) {
	if o.BufferPoolSize == 0 {
		o.BufferPoolSize = DefaultBufferPoolSize
	}
	if o.ChunkSize == 0 {
		o.ChunkSize = DefaultChunkSize
	}
	if o.IOThreads == 0 {
		o.IOThreads = DefaultIOThreads
	}
	if o.Codec == nil {
		o.Codec = codec.Raw()
	}
	if o.BufferPoolSize < 0 || o.ChunkSize <= 0 || o.IOThreads < 0 || o.ReadAhead < 0 ||
		o.Compaction.MinDeadBytes < 0 || o.Compaction.Interval < 0 {
		return o, fmt.Errorf("core: invalid options %+v: %w", o, errInvalidOptions)
	}
	return o, nil
}

var errInvalidOptions = errors.New("invalid mount options")
