package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"time"

	"crfs/internal/client"
	"crfs/internal/core"
	"crfs/internal/osfs"
	"crfs/internal/server"
	"crfs/internal/stripe"
)

// daemon is one in-process crfsd: a server over a CRFS mount with
// crfsd's defaults, on a wrapped osfs directory, listening on loopback.
type daemon struct {
	fs     *core.FS
	srv    *server.Server
	served chan error // Serve's return
}

// stripeRig is the system under test of stripe-2node: one rank streams
// its image into a striped store over two daemons, restores it, and
// deletes it.
type stripeRig struct {
	env     env
	ims     []image // one rank
	buf     []byte
	direct  float64
	daemons []*daemon
	nodes   []*node
	store   *stripe.Store
}

const (
	stripeObject = "ckpt"
	stripeNodes  = 2
)

func newStripeRig(e env, imageSize int64) (*stripeRig, error) {
	r := &stripeRig{env: e}
	r.ims = []image{makeImage(e.seed, 0, e.scale(imageSize), false)}
	r.buf = make([]byte, len(r.ims[0].data))
	var err error
	if r.direct, err = directMBps(e.dir, r.ims); err != nil {
		return nil, err
	}
	var members []stripe.Node
	for i := 0; i < stripeNodes; i++ {
		n, err := r.startNode(filepath.Join(e.dir, fmt.Sprintf("node%d", i)))
		if err != nil {
			r.close()
			return nil, err
		}
		members = append(members, n)
	}
	r.store = stripe.New(stripe.Config{}, members...)
	// The first Put and Get open connections' buffers and the daemons'
	// files; they are set-up, not steady state.
	if a, f := r.round(0, &recorder{}); f > 0 {
		r.close()
		return nil, fmt.Errorf("warm-up round: %d of %d operations failed", f, a)
	}
	return r, nil
}

func (r *stripeRig) startNode(dir string) (*node, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	root, err := osfs.New(dir)
	if err != nil {
		return nil, err
	}
	fs, err := core.Mount(&backend{FS: root, p: r.env.p, daemon: true}, core.Options{ReadAhead: 8})
	if err != nil {
		return nil, err
	}
	d := &daemon{fs: fs, srv: server.New(fs, server.Config{}), served: make(chan error, 1)}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fs.Unmount()
		return nil, err
	}
	go func() { d.served <- d.srv.Serve(ln) }()
	r.daemons = append(r.daemons, d)
	c, err := client.Dial(ln.Addr().String(), client.Config{})
	if err != nil {
		return nil, err
	}
	n := &node{id: ln.Addr().String(), c: c, p: r.env.p}
	r.nodes = append(r.nodes, n)
	return n, nil
}

func (r *stripeRig) userBytes() int64    { return totalBytes(r.ims) }
func (r *stripeRig) directMBps() float64 { return r.direct }

func (r *stripeRig) counts(t tally) {
	for _, d := range r.daemons {
		addCore(t, d.fs.Stats())
		s := d.srv.Stats()
		t["server.requests"] += s.Requests
		t["server.request_errors"] += s.RequestErrors
		t["server.bytes_in"] += s.BytesIn
		t["server.bytes_out"] += s.BytesOut
	}
	if r.store != nil {
		s := r.store.Stats()
		t["stripe.chunks_put"] += s.ChunksPut
		t["stripe.chunks_got"] += s.ChunksGot
		t["stripe.replica_fallbacks"] += s.ReplicaFallbacks
		t["stripe.checksum_failed"] += s.ChecksumFailed
	}
}

func (r *stripeRig) close() error {
	var errs []error
	for _, n := range r.nodes {
		errs = append(errs, n.Close())
	}
	for _, d := range r.daemons {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		errs = append(errs, d.srv.Shutdown(ctx))
		cancel()
		if err := <-d.served; err != nil && !errors.Is(err, net.ErrClosed) {
			errs = append(errs, err)
		}
		errs = append(errs, d.fs.Unmount())
	}
	return errors.Join(errs...)
}

func (r *stripeRig) round(n int, rec *recorder) (attempted, failed int) {
	p := r.env.p
	root := p.tracer.Start("round")
	defer root.End()
	im := &r.ims[0]
	im.next(n)
	bad := func(what string, err error) {
		failed++
		r.env.logf("round %d: %s: %v", n, what, err)
	}

	// Checkpoint: the rank writes its BLCR stream into the store's Put
	// body, so each write call returns once the store has taken it.
	attempted++
	lat := make([]int64, 0, len(im.sizes))
	pr, pw := io.Pipe()
	wrote := make(chan error, 1)
	t0 := time.Now()
	go func() {
		err := im.each(func(off, n int64) error {
			d, err := p.call("stripe.write", root.Context(), nil, func() error {
				_, err := pw.Write(im.data[off : off+n])
				return err
			})
			lat = append(lat, int64(d))
			return err
		})
		pw.CloseWithError(err)
		wrote <- err
	}()
	sp := p.tracer.StartChild("stripe.put", root.Context())
	err := r.store.Put(stripeObject, pr, int64(len(im.data)))
	sp.End()
	pr.CloseWithError(io.ErrClosedPipe) // unblocks the writer if Put stopped early
	if werr := <-wrote; err == nil {
		err = werr
	}
	d := time.Since(t0)
	p.stripeWallNs.Add(int64(d))
	rec.writes(lat)
	if err != nil {
		bad("put", err)
	} else {
		rec.ckpt(mbps(r.userBytes(), d), d)
	}

	// Restore: the store streams the object into a pipe the rank reads in
	// its BLCR call sizes.
	attempted++
	clear(r.buf)
	lat = make([]int64, 0, len(im.sizes))
	pr, pw = io.Pipe()
	got := make(chan error, 1)
	t0 = time.Now()
	go func() {
		sp := p.tracer.StartChild("stripe.get", root.Context())
		_, err := r.store.Get(stripeObject, pw)
		sp.End()
		pw.CloseWithError(err)
		got <- err
	}()
	err = im.each(func(off, n int64) error {
		d, err := p.call("stripe.read", root.Context(), nil, func() error {
			_, err := io.ReadFull(pr, r.buf[off:off+n])
			return err
		})
		lat = append(lat, int64(d))
		return err
	})
	if err == nil {
		if k, rerr := pr.Read(make([]byte, 1)); k != 0 || rerr != io.EOF {
			err = fmt.Errorf("restore longer than the image")
		}
	}
	pr.CloseWithError(io.ErrClosedPipe) // unblocks Get if the rank stopped early
	if gerr := <-got; err == nil {
		err = gerr
	}
	d = time.Since(t0)
	p.stripeWallNs.Add(int64(d))
	rec.reads(lat)
	if err == nil && !bytes.Equal(r.buf, im.data) {
		err = fmt.Errorf("restored bytes differ from the image")
	}
	if err != nil {
		bad("restore", err)
	} else {
		rec.restart(mbps(r.userBytes(), d), d)
	}

	attempted++
	if err := r.store.Delete(stripeObject); err != nil {
		bad("delete", err)
	}
	return attempted, failed
}
