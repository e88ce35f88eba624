// Command crfsd serves a CRFS mount over TCP: remote checkpoint writers
// stream their images to the daemon, which aggregates them through CRFS
// before they reach the backing directory. It plays the role a
// CRFS-mounted staging node plays in the paper's deployment.
//
// Connections carry the framed, multiplexed protocol v2 (see
// internal/server): a persistent connection serves many concurrent
// requests, PUT bodies stream straight into the CRFS write pipeline
// under backpressure, and a failed or abandoned PUT never leaves a
// partial file visible under the target name. A connection that does
// not open with the protocol-v2 hello is closed unanswered.
//
// The daemon is shaped for heavy concurrent traffic: a global
// connection cap, a per-connection in-flight request cap, read/write
// deadlines that reap stalled clients, accept-loop backoff, and a
// graceful drain on SIGTERM/SIGINT — stop accepting, finish in-flight
// requests, close the filesystem, exit 0. With -metrics it also serves
// the full Stats tree in Prometheus text format at /metrics.
//
// With -trace the daemon records spans for every request and every
// stage of the IO pipeline into an in-memory ring, joined to the
// client's trace when the request line carries a propagated trace ID;
// clients fetch the ring with the TRACE verb (crfscp -trace merges the
// dumps of a whole striped store into one chrome://tracing file).
// -debug-addr serves live introspection: /metrics (counters plus
// latency histograms), /debug/pprof/ (CPU, heap, contention profiles),
// and /debug/trace (the ring as a chrome://tracing document). -slow-ms
// logs any traced request slower than the threshold with its full span
// tree.
//
// With -compact-ratio the daemon compacts rewrite-heavy containers
// online: after each PUT (and on the -compact-interval cadence) any
// container whose dead-byte ratio crosses the threshold is rewritten to
// its minimal equivalent via a crash-safe temp-write + rename replace.
//
// Usage:
//
//	crfsd -dir /scratch/ckpt -addr :9000 -metrics 127.0.0.1:9100
//	crfsd -dir /scratch/ckpt -codec deflate -compact-ratio 0.3 -compact-interval 1m
package main

import (
	"context"
	"flag"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	crfs "crfs"
	"crfs/internal/obs"
	"crfs/internal/server"
)

func main() {
	dir := flag.String("dir", ".", "backing directory")
	addr := flag.String("addr", "127.0.0.1:9000", "listen address")
	chunk := flag.Int64("chunk", crfs.DefaultChunkSize, "chunk size")
	pool := flag.Int64("pool", crfs.DefaultBufferPoolSize, "buffer pool size")
	threads := flag.Int("threads", crfs.DefaultIOThreads, "IO threads")
	codecName := flag.String("codec", "raw", "chunk codec: "+strings.Join(crfs.CodecNames(), "|"))
	readAhead := flag.Int("readahead", 8, "read-ahead depth for GET streams, in chunks/frames (0 disables)")
	repair := flag.Bool("repair", false, "truncate torn frame containers to their intact prefix on first open (crash recovery)")
	compactRatio := flag.Float64("compact-ratio", 0, "dead-byte ratio that triggers online container compaction after PUTs (0 disables)")
	compactMin := flag.Int64("compact-min-bytes", 1<<20, "minimum reclaimable bytes before a container is compacted")
	compactEvery := flag.Duration("compact-interval", 0, "background re-check cadence for open containers (0 disables the background pass)")
	metricsAddr := flag.String("metrics", "", "serve Prometheus metrics on this address at /metrics (empty disables)")
	debugAddr := flag.String("debug-addr", "", "serve live introspection on this address: /metrics, /debug/pprof/, /debug/trace (empty disables)")
	trace := flag.Bool("trace", false, "record pipeline and request spans into the in-memory trace ring")
	traceRing := flag.Int("trace-ring", obs.DefaultRingCapacity, "trace ring capacity in spans (oldest evicted first)")
	slowMS := flag.Int("slow-ms", 0, "log any traced request slower than this many milliseconds, with its span tree (0 disables)")
	maxConns := flag.Int("max-conns", server.DefaultMaxConns, "cap on concurrently served connections")
	maxInFlight := flag.Int("max-inflight", server.DefaultMaxInFlight, "cap on concurrent requests per connection")
	maxPutBytes := flag.Int64("max-put-bytes", 0, "reject PUTs declaring a larger body (0 = unlimited)")
	readTimeout := flag.Duration("read-timeout", server.DefaultReadTimeout, "per-read deadline while a request body is being streamed")
	writeTimeout := flag.Duration("write-timeout", server.DefaultWriteTimeout, "per-write deadline toward clients")
	idleTimeout := flag.Duration("idle-timeout", server.DefaultIdleTimeout, "close connections idle this long")
	sweepInterval := flag.Duration("sweep-interval", server.DefaultSweepInterval, "background cadence for removing aborted-PUT staging temps (negative disables)")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "how long a graceful shutdown waits for in-flight requests")
	flag.Parse()

	cdc, err := crfs.LookupCodec(*codecName)
	if err != nil {
		log.Fatal(err)
	}
	// One tracer spans the whole daemon: the mount's IO pipeline and the
	// server's request handling land in the same ring, so a TRACE dump
	// (or /debug/trace) shows a request end to end.
	tr := obs.New(*traceRing)
	tr.SetProcess("crfsd:" + *addr)
	tr.SetEnabled(*trace)
	if *slowMS > 0 {
		tr.SetSlowThreshold(time.Duration(*slowMS) * time.Millisecond)
		tr.SetLogf(log.Printf)
	}
	fs, err := crfs.MountDir(*dir, crfs.Options{
		ChunkSize: *chunk, BufferPoolSize: *pool, IOThreads: *threads, Codec: cdc,
		ReadAhead: *readAhead, RepairOnOpen: *repair,
		Compaction: crfs.CompactionPolicy{
			MinDeadRatio: *compactRatio, MinDeadBytes: *compactMin, Interval: *compactEvery,
		},
		Tracer: tr,
	})
	if err != nil {
		log.Fatal(err)
	}
	srv := server.New(fs, server.Config{
		Tracer:        tr,
		MaxConns:      *maxConns,
		MaxInFlight:   *maxInFlight,
		MaxPutBytes:   *maxPutBytes,
		ReadTimeout:   *readTimeout,
		WriteTimeout:  *writeTimeout,
		IdleTimeout:   *idleTimeout,
		SweepInterval: *sweepInterval,
		Logf:          log.Printf,
	})
	if n, err := srv.SweepStaging(); err != nil {
		log.Printf("crfsd: sweeping staging temps: %v", err)
	} else if n > 0 {
		log.Printf("crfsd: removed %d stale staging temp(s)", n)
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}

	var msrv *http.Server
	if *metricsAddr != "" {
		mln, err := net.Listen("tcp", *metricsAddr)
		if err != nil {
			log.Fatal(err)
		}
		mux := http.NewServeMux()
		mux.Handle("/metrics", srv.MetricsHandler())
		msrv = &http.Server{Handler: mux, ReadHeaderTimeout: 10 * time.Second}
		go func() {
			if err := msrv.Serve(mln); err != nil && err != http.ErrServerClosed {
				log.Printf("crfsd: metrics server: %v", err)
			}
		}()
		log.Printf("crfsd: metrics on http://%s/metrics", mln.Addr())
	}

	// The debug endpoint is live introspection for a running daemon: the
	// Prometheus exposition (counters + latency histograms), the Go
	// pprof profiles, and the trace ring rendered as a chrome://tracing
	// document.
	var dsrv *http.Server
	if *debugAddr != "" {
		dln, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			log.Fatal(err)
		}
		mux := http.NewServeMux()
		mux.Handle("/metrics", srv.MetricsHandler())
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		mux.HandleFunc("/debug/trace", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			w.Write(obs.ChromeTrace(tr.Snapshot()))
		})
		dsrv = &http.Server{Handler: mux, ReadHeaderTimeout: 10 * time.Second}
		go func() {
			if err := dsrv.Serve(dln); err != nil && err != http.ErrServerClosed {
				log.Printf("crfsd: debug server: %v", err)
			}
		}()
		log.Printf("crfsd: debug on http://%s (/metrics /debug/pprof/ /debug/trace)", dln.Addr())
	}

	log.Printf("crfsd: serving %s on %s (chunk=%d pool=%d threads=%d codec=%s readahead=%d repair=%v compact-ratio=%v max-conns=%d max-inflight=%d)",
		*dir, ln.Addr(), *chunk, *pool, *threads, cdc.Name(), *readAhead, *repair, *compactRatio, *maxConns, *maxInFlight)

	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGTERM, syscall.SIGINT)
	select {
	case sig := <-sigc:
		log.Printf("crfsd: %v: draining (timeout %v)", sig, *drainTimeout)
	case err := <-errc:
		log.Fatalf("crfsd: serve: %v", err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		log.Printf("crfsd: drain incomplete, connections torn down: %v", err)
	}
	if msrv != nil {
		msrv.Close()
	}
	if dsrv != nil {
		dsrv.Close()
	}
	if err := fs.Unmount(); err != nil {
		log.Fatalf("crfsd: unmount: %v", err)
	}
	log.Printf("crfsd: drained, exiting")
}
