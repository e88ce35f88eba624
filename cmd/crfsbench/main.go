// Command crfsbench regenerates the tables and figures of the CRFS paper
// (Ouyang et al., ICPP 2011) from the deterministic simulation and prints
// paper-vs-measured comparisons.
//
// Usage:
//
//	crfsbench -list
//	crfsbench -run fig6
//	crfsbench -run all
//
// Beyond the paper reproductions, -real benchmarks the real library's
// write path over an in-memory backend, including the chunk codec:
//
//	crfsbench -real -codec deflate -size 268435456 -bs 8192
//
// -real -mix interleaves reads with the writes (the buffered-read-through
// workload the paper's write-only scenario never exercises), and -delay
// adds synthetic backend write latency so the avoided drain stalls are
// visible:
//
//	crfsbench -real -mix -readfrac 0.5 -delay 200us -codec deflate
//
// -real -restart benchmarks the other half of the C/R story: the file is
// first checkpointed through the mount, then read back sequentially (the
// restart pattern), with -delay applied to every backend read so the
// read-ahead pipeline's latency hiding is visible. -readahead sets the
// prefetch depth (0 = synchronous reads):
//
//	crfsbench -real -restart -readahead 8 -delay 200us -codec deflate
//
// -crash runs the crash-consistency harness: a mixed write/sync/
// overwrite workload is recorded through a mount over the power-cut
// fault-injection backend, then every crash point (each mutation
// boundary plus torn cuts inside each write) is replayed, remounted,
// and checked against the durability contract — including, in the
// compaction rows, with online compaction rewriting containers both
// during the recorded workload and at every crash state. The run exits
// non-zero on any violation:
//
//	crfsbench -crash
//
// -compact runs the space-amplification sweep: a rewrite-heavy
// checkpoint workload (full write plus -rewrites overwrite passes)
// accumulates dead frames, compaction rewrites the container to its
// minimal equivalent, and the dead-byte ratio before/after is reported
// (the run fails unless compaction drives it to ~0). The same mode then
// measures scrub scaling: every frame of the container is re-verified
// over a -delay-injected backend with 1 and 4 IO workers, reporting the
// parallel speedup:
//
//	crfsbench -compact -codec deflate -size 8388608 -delay 200us
//
// -server drives a crfsd daemon with -clients concurrent protocol-v2
// clients over persistent connections, each running -ops self-verifying
// PUT/GET operations ('inproc' spins a server up in-process over an
// in-memory mount). -server with -stall instead checks the daemon reaps
// a client that stalls mid-PUT:
//
//	crfsbench -server 127.0.0.1:9000 -clients 32 -ops 64 -objsize 1048576
//	crfsbench -server 127.0.0.1:9000 -stall -stall-timeout 20s
//
// -nodes runs the striped-store sweep: N in-process daemons over
// latency-injected backends, a checkpoint striped and restored at every
// cluster size 1..N (the run fails unless the 3-node restore beats
// single-node by >= 2x when -delay > 0), then a corrupt-replica pass
// (restore must stay byte-identical, scrub must repair to zero residual)
// and a kill-node pass (restore must fail over to surviving replicas).
// -stripe-op runs one striped operation against real daemons instead,
// with -server holding the comma-separated node addresses:
//
//	crfsbench -nodes 3 -objsize 67108864 -stripe-chunk 1048576 -delay 2ms
//	crfsbench -server :9000,:9001,:9002 -stripe-op put -objsize 8388608
//
// -obs-overhead measures the observability tax: the CPU-bound mix
// workload runs with span tracing disabled and enabled and the
// throughput delta is reported (-max-overhead-pct turns the report
// into a gate). -check-trace validates a chrome-trace file written by
// crfscp -trace: one trace ID must span the client, a daemon, and the
// core IO pipeline across at least -check-procs distinct processes —
// the end-to-end propagation check the striped CI flow relies on:
//
//	crfsbench -obs-overhead -codec raw -size 268435456 -max-overhead-pct 5
//	crfsbench -check-trace trace.json -check-procs 4
//
// -json switches every -real/-restart/-crash/-compact/-server scenario
// to machine-readable output: one JSON object per scenario on stdout,
// so perf trajectories can be captured as BENCH_*.json. -real and
// -restart rows include p50/p95/p99 stage latencies from the mount's
// histograms.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"strings"
	"time"

	crfs "crfs"
	"crfs/internal/crashfs"
	"crfs/internal/experiments"
	"crfs/internal/memfs"
	"crfs/internal/stripe"
)

func main() {
	list := flag.Bool("list", false, "list available experiment ids")
	run := flag.String("run", "all", "experiment id to run, or 'all'")
	real := flag.Bool("real", false, "benchmark the real library write path instead of a simulation")
	codecName := flag.String("codec", "raw", "chunk codec for -real (raw|deflate)")
	size := flag.Int64("size", 256<<20, "bytes to write in -real mode")
	bs := flag.Int("bs", 8192, "application write size in -real mode")
	entropy := flag.Float64("entropy", 0.5, "fraction of incompressible bytes in the -real payload (0..1)")
	mix := flag.Bool("mix", false, "with -real: interleave reads of already-written data with the writes")
	readFrac := flag.Float64("readfrac", 0.5, "with -real -mix: fraction of operations that are reads (0..1)")
	delay := flag.Duration("delay", 0, "with -real: synthetic backend latency (e.g. 200us)")
	restart := flag.Bool("restart", false, "with -real: write the file, then benchmark sequential restart reads")
	readAhead := flag.Int("readahead", 0, "with -real -restart: read-ahead depth in chunks/frames (0 disables)")
	crash := flag.Bool("crash", false, "run the crash-point enumeration harness and verify the durability contract")
	compactRun := flag.Bool("compact", false, "run the space-amplification sweep (rewrite-heavy workload, compaction, scrub scaling)")
	rewrites := flag.Int("rewrites", 4, "with -compact: overwrite passes over the checkpoint image")
	serverAddr := flag.String("server", "", "drive a crfsd daemon at this address with concurrent clients ('inproc' spins one up in-process)")
	clients := flag.Int("clients", 8, "with -server: concurrent clients")
	ops := flag.Int("ops", 64, "with -server: operations per client")
	objSize := flag.Int64("objsize", 1<<20, "with -server: object size in bytes")
	putFrac := flag.Float64("putfrac", 0.5, "with -server: fraction of operations that are PUTs")
	stall := flag.Bool("stall", false, "with -server: check the daemon reaps a client that stalls mid-PUT")
	stallTimeout := flag.Duration("stall-timeout", 30*time.Second, "with -server -stall: how long to wait for the reap")
	nodes := flag.Int("nodes", 0, "striped-store hermetic sweep over this many in-process daemons (uses -objsize, -stripe-chunk, -replicas, -delay)")
	stripeOp := flag.String("stripe-op", "", "with comma-separated -server addrs: one striped operation against real daemons (put|restore|scrub)")
	stripeChunk := flag.Int64("stripe-chunk", stripe.DefaultChunkSize, "stripe chunk size for striped modes")
	replicas := flag.Int("replicas", stripe.DefaultReplicas, "chunk replication factor for striped modes")
	jsonOut := flag.Bool("json", false, "emit one JSON object per scenario instead of human-readable text")
	obsOverhead := flag.Bool("obs-overhead", false, "measure the tracing tax: CPU-bound mix workload with spans off vs on")
	maxOverhead := flag.Float64("max-overhead-pct", 0, "with -obs-overhead: fail if the overhead exceeds this percentage (0 = report only)")
	checkTracePath := flag.String("check-trace", "", "validate a chrome-trace file: one trace must span client, daemon, and core pipeline")
	checkProcs := flag.Int("check-procs", 2, "with -check-trace: minimum distinct processes one trace must cover")
	flag.Parse()

	emit := newEmitter(*jsonOut)
	switch {
	case *checkTracePath != "":
		if err := checkTrace(emit, *checkTracePath, *checkProcs); err != nil {
			fatal(err)
		}
		return
	case *obsOverhead:
		if err := obsOverheadBench(emit, *codecName, *size, *bs, *entropy, *readFrac, *maxOverhead); err != nil {
			fatal(err)
		}
		return
	case *nodes > 0:
		if err := stripeSweep(emit, *nodes, *objSize, *stripeChunk, *replicas, *delay); err != nil {
			fatal(err)
		}
		return
	case *stripeOp != "":
		if err := stripeRealBench(emit, strings.Split(*serverAddr, ","), *stripeOp, *objSize, *stripeChunk, *replicas); err != nil {
			fatal(err)
		}
		return
	case *serverAddr != "":
		var err error
		if *stall {
			err = stallCheck(emit, *serverAddr, *stallTimeout)
		} else {
			err = serverBench(emit, *serverAddr, *clients, *ops, *objSize, *putFrac)
		}
		if err != nil {
			fatal(err)
		}
		return
	case *crash:
		if err := crashBench(emit); err != nil {
			fatal(err)
		}
		return
	case *compactRun:
		if err := compactBench(emit, *codecName, *size, *bs, *entropy, *rewrites, *delay); err != nil {
			fatal(err)
		}
		return
	case *real:
		var err error
		if *restart {
			err = restartBench(emit, *codecName, *size, *bs, *entropy, *readAhead, *delay)
		} else {
			err = realBench(emit, *codecName, *size, *bs, *entropy, *mix, *readFrac, *delay)
		}
		if err != nil {
			fatal(err)
		}
		return
	}
	if *list {
		for _, id := range experiments.IDs() {
			fmt.Println(id)
		}
		return
	}
	ids := experiments.IDs()
	if *run != "all" {
		ids = []string{*run}
	}
	for _, id := range ids {
		start := time.Now()
		rep, err := experiments.Run(id)
		if err != nil {
			fatal(err)
		}
		fmt.Print(rep.Format())
		fmt.Printf("(regenerated in %.1fs)\n\n", time.Since(start).Seconds())
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}

// emitter routes each scenario's result: JSON mode encodes the result
// object (one per line, BENCH_*.json-ready); human mode prints the
// preformatted text lines instead.
type emitter struct {
	json bool
	enc  *json.Encoder
}

func newEmitter(jsonOut bool) *emitter {
	return &emitter{json: jsonOut, enc: json.NewEncoder(os.Stdout)}
}

// scenario emits one result: v in JSON mode, the human lines otherwise.
func (e *emitter) scenario(v any, human ...string) {
	if e.json {
		if err := e.enc.Encode(v); err != nil {
			fatal(err)
		}
		return
	}
	for _, line := range human {
		fmt.Println(line)
	}
}

// crashBench sweeps the crash-point harness across the codec × repair ×
// compaction matrix on the standard mixed write/sync/overwrite workload,
// one row (scenario) per configuration. Any durability-contract
// violation fails the run.
func crashBench(emit *emitter) error {
	type cfg struct {
		name       string
		codec      crfs.Codec
		repair     bool
		compaction bool
	}
	matrix := []cfg{
		{"raw", crfs.RawCodec(), false, false},
		{"raw+repair", crfs.RawCodec(), true, false},
		{"deflate", crfs.DeflateCodec(), false, false},
		{"deflate+repair", crfs.DeflateCodec(), true, false},
		{"deflate+compact", crfs.DeflateCodec(), false, true},
		{"deflate+compact+repair", crfs.DeflateCodec(), true, true},
	}
	if !emit.json {
		fmt.Printf("%-24s %10s %8s %10s %9s %9s %11s %10s %9s %9s %9s %9s\n",
			"config", "mutations", "points", "violations", "salvaged", "repaired", "frames-lost", "bytes-cut", "rec-cmpct", "pt-cmpct", "crc-ok", "crc-fail")
	}
	failed := false
	for _, m := range matrix {
		res, err := crashfs.RunHarness(crashfs.HarnessConfig{
			Codec: m.codec, Repair: m.repair, Torn: true, Compaction: m.compaction,
		}, crashfs.MixedWorkload())
		if err != nil {
			return err
		}
		emit.scenario(struct {
			Scenario          string `json:"scenario"`
			Config            string `json:"config"`
			Mutations         int    `json:"mutations"`
			Points            int    `json:"points"`
			Violations        int    `json:"violations"`
			Salvaged          int64  `json:"salvaged"`
			Repaired          int64  `json:"repaired"`
			FramesLost        int64  `json:"frames_lost"`
			BytesCut          int64  `json:"bytes_cut"`
			RecordCompactions int64  `json:"record_compactions"`
			PointCompactions  int64  `json:"point_compactions"`
			ChecksumVerified  int64  `json:"checksum_verified"`
			ChecksumSkipped   int64  `json:"checksum_skipped"`
			ChecksumFailed    int64  `json:"checksum_failed"`
		}{"crash", m.name, res.Mutations, res.Points, len(res.Violations),
			res.Salvaged, res.Repaired, res.FramesDropped, res.BytesTruncated,
			res.RecordCompactions, res.PointCompactions,
			res.ChecksumVerified, res.ChecksumSkipped, res.ChecksumFailed},
			fmt.Sprintf("%-24s %10d %8d %10d %9d %9d %11d %10d %9d %9d %9d %9d",
				m.name, res.Mutations, res.Points, len(res.Violations),
				res.Salvaged, res.Repaired, res.FramesDropped, res.BytesTruncated,
				res.RecordCompactions, res.PointCompactions,
				res.ChecksumVerified, res.ChecksumFailed))
		for _, v := range res.Violations {
			failed = true
			fmt.Fprintf(os.Stderr, "  VIOLATION [%s]: %s\n", m.name, v)
		}
		if m.compaction && (res.RecordCompactions == 0 || res.PointCompactions == 0) {
			failed = true
			fmt.Fprintf(os.Stderr, "  [%s] compaction never exercised (record=%d point=%d)\n",
				m.name, res.RecordCompactions, res.PointCompactions)
		}
	}
	if failed {
		return fmt.Errorf("crfsbench: durability contract violated")
	}
	if !emit.json {
		fmt.Println("durability contract proven at every enumerated crash point (compaction included)")
	}
	return nil
}

// payloadPool builds the shared benchmark payload source: a sliding
// window over a chunk-sized random pool, so repetition never appears
// within one codec frame.
func payloadPool(bs int) []byte {
	pool := make([]byte, crfs.DefaultChunkSize+int64(bs))
	rand.New(rand.NewSource(1)).Read(pool)
	return pool
}

// realBench drives the real aggregation pipeline: checkpoint-sized writes
// through a mount over an in-memory backend, reporting throughput,
// aggregation, and the codec's IO-volume saving. With mix, reads of
// already-written offsets are interleaved at the given fraction; they are
// served by the buffered-read-through overlay, so the write pipeline
// never drains mid-run.
func realBench(emit *emitter, codecName string, size int64, bs int, entropy float64, mix bool, readFrac float64, delay time.Duration) error {
	if entropy < 0 || entropy > 1 {
		return fmt.Errorf("crfsbench: -entropy %v out of range [0,1]", entropy)
	}
	if bs <= 0 || size <= 0 {
		return fmt.Errorf("crfsbench: -size and -bs must be positive")
	}
	if mix && (readFrac < 0 || readFrac >= 1) {
		return fmt.Errorf("crfsbench: -readfrac %v out of range [0,1)", readFrac)
	}
	cdc, err := crfs.LookupCodec(codecName)
	if err != nil {
		return err
	}
	fs, err := crfs.Mount(memfs.New(memfs.WithWriteDelay(delay)), crfs.Options{Codec: cdc})
	if err != nil {
		return err
	}
	flag := crfs.OpenFlag(crfs.WriteOnly)
	if mix {
		flag = crfs.ReadWrite
	}
	f, err := fs.Open("bench.img", flag|crfs.Create)
	if err != nil {
		fs.Unmount()
		return err
	}
	const poolLen = crfs.DefaultChunkSize
	pool := payloadPool(bs)
	rng := rand.New(rand.NewSource(1))
	buf := make([]byte, bs)
	rbuf := make([]byte, bs)
	nrand := int(float64(bs) * entropy)
	start := time.Now()
	for off := int64(0); off < size; {
		if mix && off > 0 && rng.Float64() < readFrac {
			if _, err := f.ReadAt(rbuf, rng.Int63n(off)); err != nil && err != io.EOF {
				f.Close()
				fs.Unmount()
				return err
			}
			continue
		}
		copy(buf[:nrand], pool[off%poolLen:])
		if _, err := f.WriteAt(buf, off); err != nil {
			f.Close()
			fs.Unmount()
			return err
		}
		off += int64(bs)
	}
	if err := f.Close(); err != nil {
		fs.Unmount()
		return err
	}
	if err := fs.Unmount(); err != nil {
		return err
	}
	el := time.Since(start).Seconds()
	st := fs.Stats()
	hist := fs.Histograms()
	writeQ := quantilesOf(hist["write_at"])
	backendQ := quantilesOf(hist["backend_write"])
	moved := st.BytesWritten + st.BytesRead
	scenario := "write"
	if mix {
		scenario = "mix"
	}
	human := []string{
		fmt.Sprintf("real: codec=%s wrote %d bytes, read %d bytes in %.3fs (%.1f MB/s)",
			cdc.Name(), st.BytesWritten, st.BytesRead, el, float64(moved)/el/(1<<20)),
		fmt.Sprintf("app writes: %d, backend writes: %d (aggregation %.1fx), backend bytes: %d",
			st.Writes, st.BackendWrites, st.AggregationRatio(), st.BackendBytes),
		writeQ.format("write_at"),
		backendQ.format("backend_write"),
	}
	if cs := st.Codec(); cs.Frames > 0 {
		human = append(human, cs.Format())
	}
	if rp := st.ReadPath(); rp.Reads > 0 {
		human = append(human, rp.Format())
	}
	emit.scenario(struct {
		Scenario         string    `json:"scenario"`
		Codec            string    `json:"codec"`
		DelayUS          int64     `json:"delay_us"`
		BytesWritten     int64     `json:"bytes_written"`
		BytesRead        int64     `json:"bytes_read"`
		Seconds          float64   `json:"seconds"`
		MBps             float64   `json:"mbps"`
		Writes           int64     `json:"writes"`
		BackendWrites    int64     `json:"backend_writes"`
		AggregationRatio float64   `json:"aggregation_ratio"`
		BackendBytes     int64     `json:"backend_bytes"`
		CodecRatio       float64   `json:"codec_ratio"`
		ReadsFromBuffer  int64     `json:"reads_from_buffer"`
		DrainsAvoided    int64     `json:"drains_avoided"`
		WriteLatency     quantiles `json:"write_latency"`
		BackendLatency   quantiles `json:"backend_write_latency"`
	}{scenario, cdc.Name(), delay.Microseconds(), st.BytesWritten, st.BytesRead, el,
		float64(moved) / el / (1 << 20), st.Writes, st.BackendWrites, st.AggregationRatio(),
		st.BackendBytes, st.CompressionRatio(), st.ReadsFromBuffer, st.ReadDrainsAvoided,
		writeQ, backendQ},
		human...)
	return nil
}

// restartBench measures the restart read pipeline: a checkpoint image is
// written through one mount, then read back sequentially through a fresh
// mount with the given read-ahead depth, every backend read paying the
// synthetic latency. Comparing -readahead 0 against a positive depth
// isolates what the prefetch pipeline hides.
func restartBench(emit *emitter, codecName string, size int64, bs int, entropy float64, readAhead int, delay time.Duration) error {
	if entropy < 0 || entropy > 1 {
		return fmt.Errorf("crfsbench: -entropy %v out of range [0,1]", entropy)
	}
	if bs <= 0 || size <= 0 {
		return fmt.Errorf("crfsbench: -size and -bs must be positive")
	}
	if readAhead < 0 {
		return fmt.Errorf("crfsbench: -readahead must be >= 0")
	}
	cdc, err := crfs.LookupCodec(codecName)
	if err != nil {
		return err
	}
	back := memfs.New(memfs.WithReadDelay(delay))
	if err := writeImage(back, "restart.img", cdc, size, bs, entropy, crfs.Options{Codec: cdc}); err != nil {
		return err
	}

	// Restart phase: sequential read-back, timed.
	fs, err := crfs.Mount(back, crfs.Options{Codec: cdc, ReadAhead: readAhead})
	if err != nil {
		return err
	}
	f, err := fs.Open("restart.img", crfs.ReadOnly)
	if err != nil {
		fs.Unmount()
		return err
	}
	buf := make([]byte, bs)
	start := time.Now()
	var total int64
	for off := int64(0); off < size; {
		n, err := f.ReadAt(buf, off)
		if err != nil && err != io.EOF {
			f.Close()
			fs.Unmount()
			return err
		}
		if n == 0 {
			break
		}
		total += int64(n)
		off += int64(n)
	}
	el := time.Since(start).Seconds()
	if err := f.Close(); err != nil {
		fs.Unmount()
		return err
	}
	if err := fs.Unmount(); err != nil {
		return err
	}
	st := fs.Stats()
	readQ := quantilesOf(fs.Histograms()["read_at"])
	emit.scenario(struct {
		Scenario    string    `json:"scenario"`
		Codec       string    `json:"codec"`
		ReadAhead   int       `json:"readahead"`
		DelayUS     int64     `json:"delay_us"`
		Bytes       int64     `json:"bytes"`
		Seconds     float64   `json:"seconds"`
		MBps        float64   `json:"mbps"`
		Hits        int64     `json:"prefetch_hits"`
		Misses      int64     `json:"prefetch_misses"`
		Wasted      int64     `json:"prefetch_wasted"`
		ReadLatency quantiles `json:"read_latency"`
	}{"restart", cdc.Name(), readAhead, delay.Microseconds(), total, el,
		float64(total) / el / (1 << 20), st.PrefetchHits, st.PrefetchMisses, st.PrefetchWasted, readQ},
		fmt.Sprintf("restart: codec=%s readahead=%d delay=%v read %d bytes in %.3fs (%.1f MB/s)",
			cdc.Name(), readAhead, delay, total, el, float64(total)/el/(1<<20)),
		st.Prefetch().Format(),
		readQ.format("read_at"))
	return nil
}

// writeImage checkpoints one image through a fresh mount over back.
func writeImage(back crfs.Filesystem, name string, cdc crfs.Codec, size int64, bs int, entropy float64, opts crfs.Options) error {
	fs, err := crfs.Mount(back, opts)
	if err != nil {
		return err
	}
	const poolLen = crfs.DefaultChunkSize
	pool := payloadPool(bs)
	buf := make([]byte, bs)
	nrand := int(float64(bs) * entropy)
	w, err := fs.Open(name, crfs.WriteOnly|crfs.Create)
	if err != nil {
		fs.Unmount()
		return err
	}
	for off := int64(0); off < size; off += int64(bs) {
		copy(buf[:nrand], pool[off%poolLen:])
		if _, err := w.WriteAt(buf, off); err != nil {
			w.Close()
			fs.Unmount()
			return err
		}
	}
	if err := w.Close(); err != nil {
		fs.Unmount()
		return err
	}
	return fs.Unmount()
}

// compactBench is the space-amplification sweep plus scrub scaling.
//
// Phase 1 (compaction): a checkpoint image is written and then partially
// overwritten -rewrites times through a framed mount — the in-place
// incremental checkpoint pattern — so the log-structured container
// accumulates dead frames. The dead-byte ratio before and after an
// explicit compaction is reported; the run fails unless compaction
// drives it to ~0 while reads stay byte-identical.
//
// Phase 2 (scrub): the compacted container's frames are re-verified
// through mounts with 1 and 4 IO workers over a backend whose reads pay
// -delay, reporting the parallel speedup of the pFSCK-style fan-out.
func compactBench(emit *emitter, codecName string, size int64, bs int, entropy float64, rewrites int, delay time.Duration) error {
	cdc, err := crfs.LookupCodec(codecName)
	if err != nil {
		return err
	}
	if cdc.Name() == "raw" {
		return fmt.Errorf("crfsbench: -compact requires a framing codec (raw mounts write plain files); try -codec deflate")
	}
	if size <= 0 || bs <= 0 || rewrites < 1 {
		return fmt.Errorf("crfsbench: -size, -bs, -rewrites must be positive")
	}
	chunk := int64(64 << 10)
	if int64(bs) > chunk {
		chunk = int64(bs)
	}
	const name = "compact.img"

	// Phase 1 on an undelayed backend: compaction cost, not backend
	// latency, is the subject.
	back := memfs.New()
	fs, err := crfs.Mount(back, crfs.Options{Codec: cdc, ChunkSize: chunk})
	if err != nil {
		return err
	}
	f, err := fs.Open(name, crfs.WriteOnly|crfs.Create)
	if err != nil {
		fs.Unmount()
		return err
	}
	pool := payloadPool(int(chunk))
	buf := make([]byte, chunk)
	nrand := int(float64(chunk) * entropy)
	write := func(off, salt int64) error {
		copy(buf[:nrand], pool[(off+salt*7919)%crfs.DefaultChunkSize:])
		_, err := f.WriteAt(buf, off)
		return err
	}
	for off := int64(0); off < size; off += chunk {
		if err := write(off, 0); err != nil {
			fs.Unmount()
			return err
		}
	}
	for pass := 1; pass <= rewrites; pass++ {
		// Overwrite every other chunk: half the image is rewritten in
		// place each pass, the incremental-checkpoint shape.
		for off := int64(0); off < size; off += 2 * chunk {
			if err := write(off, int64(pass)); err != nil {
				fs.Unmount()
				return err
			}
		}
		if err := f.Sync(); err != nil {
			fs.Unmount()
			return err
		}
	}
	if err := f.Close(); err != nil {
		fs.Unmount()
		return err
	}
	info, err := back.Stat(name)
	if err != nil {
		fs.Unmount()
		return err
	}
	backendBefore := info.Size
	sum0, err := checksumImage(fs, name, size)
	if err != nil {
		fs.Unmount()
		return err
	}
	t0 := time.Now()
	if err := fs.Compact(name); err != nil {
		fs.Unmount()
		return err
	}
	compactSecs := time.Since(t0).Seconds()
	info, err = back.Stat(name)
	if err != nil {
		fs.Unmount()
		return err
	}
	backendAfter := info.Size
	sum1, err := checksumImage(fs, name, size)
	if err != nil {
		fs.Unmount()
		return err
	}
	if sum0 != sum1 {
		fs.Unmount()
		return fmt.Errorf("crfsbench: compaction changed the image content (checksum %x -> %x)", sum0, sum1)
	}
	// Second compaction measures the residual dead bytes: on a minimal
	// container it reclaims nothing.
	if err := fs.Compact(name); err != nil {
		fs.Unmount()
		return err
	}
	info, err = back.Stat(name)
	if err != nil {
		fs.Unmount()
		return err
	}
	st := fs.Stats()
	if err := fs.Unmount(); err != nil {
		return err
	}
	deadBefore := float64(backendBefore-backendAfter) / float64(backendBefore)
	deadAfter := float64(backendAfter-info.Size) / float64(backendAfter)
	emit.scenario(struct {
		Scenario        string  `json:"scenario"`
		Codec           string  `json:"codec"`
		Rewrites        int     `json:"rewrites"`
		Logical         int64   `json:"logical_bytes"`
		BackendBefore   int64   `json:"backend_before"`
		BackendAfter    int64   `json:"backend_after"`
		SpaceAmpBefore  float64 `json:"space_amp_before"`
		SpaceAmpAfter   float64 `json:"space_amp_after"`
		DeadRatioBefore float64 `json:"dead_ratio_before"`
		DeadRatioAfter  float64 `json:"dead_ratio_after"`
		FramesDropped   int64   `json:"frames_dropped"`
		Reclaimed       int64   `json:"bytes_reclaimed"`
		Seconds         float64 `json:"seconds"`
	}{"compact", cdc.Name(), rewrites, size, backendBefore, backendAfter,
		float64(backendBefore) / float64(size), float64(backendAfter) / float64(size),
		deadBefore, deadAfter, st.CompactFramesDropped, st.CompactBytesReclaimed, compactSecs},
		fmt.Sprintf("compact: codec=%s rewrites=%d logical=%d backend %d -> %d bytes in %.3fs",
			cdc.Name(), rewrites, size, backendBefore, backendAfter, compactSecs),
		fmt.Sprintf("space amplification %.2fx -> %.2fx, dead-byte ratio %.1f%% -> %.2f%%, %s",
			float64(backendBefore)/float64(size), float64(backendAfter)/float64(size),
			100*deadBefore, 100*deadAfter, st.Compaction().Format()))
	if deadBefore < 0.1 {
		return fmt.Errorf("crfsbench: rewrite workload accumulated only %.1f%% dead bytes; sweep is not exercising compaction", 100*deadBefore)
	}
	if deadAfter > 0.01 {
		return fmt.Errorf("crfsbench: compaction left %.2f%% dead bytes, want ~0", 100*deadAfter)
	}

	// Phase 2: scrub scaling over a latency-injected backend. The image
	// is re-checkpointed onto the delayed backend, then every frame is
	// re-verified with 1 and 4 workers; the file is held open so the
	// timed region is pure fan-out (the open-time index scan is serial
	// either way and paid outside the clock).
	sback := memfs.New(memfs.WithReadDelay(delay))
	if err := writeImage(sback, name, cdc, size, int(chunk), entropy, crfs.Options{Codec: cdc, ChunkSize: chunk}); err != nil {
		return err
	}
	var secs [2]float64
	for i, workers := range []int{1, 4} {
		sfs, err := crfs.Mount(sback, crfs.Options{Codec: cdc, ChunkSize: chunk, IOThreads: workers})
		if err != nil {
			return err
		}
		fh, err := sfs.Open(name, crfs.ReadOnly)
		if err != nil {
			sfs.Unmount()
			return err
		}
		t0 := time.Now()
		rep, err := sfs.Scrub(crfs.ScrubOptions{})
		secs[i] = time.Since(t0).Seconds()
		if err == nil && !rep.Clean() {
			err = fmt.Errorf("crfsbench: scrub found defects in a healthy container: %s", rep.Format())
		}
		fh.Close()
		if uerr := sfs.Unmount(); err == nil {
			err = uerr
		}
		if err != nil {
			return err
		}
		emit.scenario(struct {
			Scenario string  `json:"scenario"`
			Codec    string  `json:"codec"`
			Workers  int     `json:"workers"`
			DelayUS  int64   `json:"delay_us"`
			Frames   int64   `json:"frames_verified"`
			Bytes    int64   `json:"bytes_verified"`
			Seconds  float64 `json:"seconds"`
			MBps     float64 `json:"mbps"`
		}{"scrub", cdc.Name(), workers, delay.Microseconds(), rep.Frames, rep.Bytes,
			secs[i], float64(rep.Bytes) / secs[i] / (1 << 20)},
			fmt.Sprintf("scrub: workers=%d delay=%v verified %d frames (%d bytes) in %.3fs",
				workers, delay, rep.Frames, rep.Bytes, secs[i]))
	}
	speedup := secs[0] / secs[1]
	if !emit.json {
		fmt.Printf("scrub speedup at 4 workers over 1: %.2fx\n", speedup)
	}
	if delay > 0 && speedup < 2.0 {
		return fmt.Errorf("crfsbench: scrub speedup %.2fx at 4 workers, want >= 2x on a latency-injected backend", speedup)
	}
	return nil
}

// checksumImage reads the whole logical image through the mount and
// returns a position-sensitive checksum.
func checksumImage(fs *crfs.FS, name string, size int64) (uint64, error) {
	f, err := fs.Open(name, crfs.ReadOnly)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	buf := make([]byte, 1<<20)
	var sum uint64
	for off := int64(0); off < size; {
		n, err := f.ReadAt(buf, off)
		if err != nil && err != io.EOF {
			return 0, err
		}
		if n == 0 {
			break
		}
		for i := 0; i < n; i++ {
			sum = sum*1099511628211 + uint64(buf[i])
		}
		off += int64(n)
	}
	return sum, nil
}
