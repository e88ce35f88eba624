package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	crfs "crfs"
	"crfs/internal/client"
	"crfs/internal/memfs"
	"crfs/internal/server"
)

// serverBench drives a crfsd daemon with nclients concurrent protocol-v2
// clients over persistent connections, each running ops self-verifying
// PUT/GET operations against its own object names. With addr "inproc"
// it spins up an in-process server over an in-memory mount, so the mode
// doubles as a no-setup stress run.
func serverBench(emit *emitter, addr string, nclients, ops int, objSize int64, putFrac float64) error {
	var cleanup func() error
	if addr == "inproc" {
		var err error
		addr, cleanup, err = startInproc()
		if err != nil {
			return err
		}
		defer cleanup()
	}

	var (
		puts, gets, errs atomic.Int64
		bytesMoved       atomic.Int64
	)
	start := time.Now()
	var wg sync.WaitGroup
	firstErr := make(chan error, nclients)
	for ci := 0; ci < nclients; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			c, err := client.Dial(addr, client.Config{IOTimeout: time.Minute})
			if err != nil {
				errs.Add(1)
				firstErr <- fmt.Errorf("client %d: dial: %w", ci, err)
				return
			}
			defer c.Close()
			versions := make(map[string]int)
			for op := 0; op < ops; op++ {
				name := fmt.Sprintf("bench/c%d/obj%d", ci, op%4)
				// Interleave: the first op on a name must be a PUT; after
				// that, putFrac of the ops overwrite, the rest read back.
				doPut := versions[name] == 0 || frac(ci*ops+op) < putFrac
				if doPut {
					versions[name]++
					body := payload(name, versions[name], objSize)
					if err := c.Put(name, bytes.NewReader(body), objSize); err != nil {
						errs.Add(1)
						firstErr <- fmt.Errorf("client %d: PUT %s: %w", ci, name, err)
						return
					}
					puts.Add(1)
					bytesMoved.Add(objSize)
					continue
				}
				var got bytes.Buffer
				if _, err := c.Get(name, &got); err != nil {
					errs.Add(1)
					firstErr <- fmt.Errorf("client %d: GET %s: %w", ci, name, err)
					return
				}
				// Another run of this benchmark could be writing too, but
				// within one client the name is private: the content must be
				// exactly the last version this client committed.
				if !bytes.Equal(got.Bytes(), payload(name, versions[name], objSize)) {
					errs.Add(1)
					firstErr <- fmt.Errorf("client %d: GET %s: payload mismatch (%d bytes)", ci, name, got.Len())
					return
				}
				gets.Add(1)
				bytesMoved.Add(objSize)
			}
		}(ci)
	}
	wg.Wait()
	close(firstErr)
	el := time.Since(start).Seconds()
	totalOps := puts.Load() + gets.Load()
	res := struct {
		Scenario string  `json:"scenario"`
		Clients  int     `json:"clients"`
		Ops      int64   `json:"ops"`
		Puts     int64   `json:"puts"`
		Gets     int64   `json:"gets"`
		Errors   int64   `json:"errors"`
		Bytes    int64   `json:"bytes"`
		Seconds  float64 `json:"seconds"`
		OpsPerS  float64 `json:"ops_per_s"`
		MBPerS   float64 `json:"mb_per_s"`
	}{
		Scenario: "server-load", Clients: nclients,
		Ops: totalOps, Puts: puts.Load(), Gets: gets.Load(), Errors: errs.Load(),
		Bytes: bytesMoved.Load(), Seconds: el,
		OpsPerS: float64(totalOps) / el, MBPerS: float64(bytesMoved.Load()) / el / (1 << 20),
	}
	emit.scenario(res,
		fmt.Sprintf("server load: %d clients x %d ops, obj %d bytes", nclients, ops, objSize),
		fmt.Sprintf("  %d puts, %d gets, %d errors in %.3fs (%.0f ops/s, %.1f MB/s)",
			res.Puts, res.Gets, res.Errors, el, res.OpsPerS, res.MBPerS))
	if err, ok := <-firstErr; ok {
		return err
	}
	return nil
}

// stallCheck verifies the daemon reaps a stalled client: it opens a
// session, starts a PUT, sends half the body as data frames, and goes
// silent. A healthy server hits its read deadline and closes the
// connection well before timeout; a regressed server pins the goroutine
// (and the staged PUT) forever.
func stallCheck(emit *emitter, addr string, timeout time.Duration) error {
	var cleanup func() error
	if addr == "inproc" {
		var err error
		addr, cleanup, err = startInproc()
		if err != nil {
			return err
		}
		defer cleanup()
	}
	nc, err := net.DialTimeout("tcp", addr, 10*time.Second)
	if err != nil {
		return err
	}
	defer nc.Close()
	const size = 1 << 20
	start := time.Now()
	nc.SetWriteDeadline(start.Add(timeout))
	if _, err := io.WriteString(nc, server.HelloLine); err != nil {
		return err
	}
	if err := server.WriteFrame(nc, server.FrameReq, 1, []byte(fmt.Sprintf("PUT bench/stall %d", size))); err != nil {
		return err
	}
	chunk := make([]byte, server.DataChunk)
	for sent := 0; sent < size/2; sent += len(chunk) {
		if err := server.WriteFrame(nc, server.FrameData, 1, chunk); err != nil {
			return err
		}
	}
	// Go silent mid-body and wait for the server to hang up on us: it
	// tears the session down, aborting the staged PUT. Reading until
	// error drains the hello (and any err frame) and observes the close;
	// only our own deadline expiring (a timeout error) means the server
	// left the connection pinned.
	nc.SetReadDeadline(time.Now().Add(timeout))
	var rerr error
	for rerr == nil {
		_, rerr = nc.Read(make([]byte, 256))
	}
	el := time.Since(start)
	ne, isNetErr := rerr.(net.Error)
	reaped := !(isNetErr && ne.Timeout())
	res := struct {
		Scenario string  `json:"scenario"`
		Reaped   bool    `json:"reaped"`
		Seconds  float64 `json:"seconds"`
	}{Scenario: "server-stall", Reaped: reaped, Seconds: el.Seconds()}
	emit.scenario(res, fmt.Sprintf("stalled client: reaped=%v after %.1fs", reaped, el.Seconds()))
	if !reaped {
		return fmt.Errorf("server did not reap the stalled connection within %v", timeout)
	}
	return nil
}

// startInproc mounts an in-memory CRFS and serves it on a loopback
// listener, returning the address and a cleanup.
func startInproc() (string, func() error, error) {
	fs, err := crfs.Mount(memfs.New(), crfs.Options{ChunkSize: 1 << 20})
	if err != nil {
		return "", nil, err
	}
	srv := server.New(fs, server.Config{
		ReadTimeout: 2 * time.Second, WriteTimeout: 10 * time.Second, IdleTimeout: 30 * time.Second,
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fs.Unmount()
		return "", nil, err
	}
	go srv.Serve(ln)
	cleanup := func() error {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
		return fs.Unmount()
	}
	return ln.Addr().String(), cleanup, nil
}

// payload builds the deterministic self-verifying body for one object
// version: an xorshift stream seeded from the name and version, so any
// byte-level corruption or cross-version mixup fails the compare.
func payload(name string, version int, size int64) []byte {
	seed := uint64(version)*1099511628211 + 14695981039346656037
	for _, b := range []byte(name) {
		seed = (seed ^ uint64(b)) * 1099511628211
	}
	if seed == 0 {
		seed = 1
	}
	out := make([]byte, size)
	for i := range out {
		seed ^= seed << 13
		seed ^= seed >> 7
		seed ^= seed << 17
		out[i] = byte(seed)
	}
	return out
}

// frac maps an op index to a stable pseudo-random fraction in [0,1).
func frac(i int) float64 {
	x := uint64(i)*2654435761 + 1
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	return float64(x%1000) / 1000
}
