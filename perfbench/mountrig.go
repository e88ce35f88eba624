package main

import (
	"bytes"
	"fmt"
	"io"
	"path/filepath"
	"time"

	"crfs/internal/codec"
	"crfs/internal/core"
	"crfs/internal/obs"
	"crfs/internal/osfs"
	"crfs/internal/vfs"
)

// mountSpec shapes a workload that checkpoints through one CRFS mount
// over a directory and restarts through a fresh one.
type mountSpec struct {
	imageSize    int64
	compressible bool
	codec        codec.Codec // nil: raw passthrough, the paper's CRFS
	readAhead    int         // restart mount's read-ahead depth
	readLatency  time.Duration
}

// mountRig is the system under test of ckpt-raw and restart-deflate: two
// ranks dump their images through one long-lived checkpoint mount, then
// read them back through a fresh restart mount each round.
type mountRig struct {
	spec   mountSpec
	env    env
	ims    []image
	bufs   [][]byte // restart destinations, one per rank
	direct float64

	ckpt        *core.FS
	restartBack *backend
	restarted   tally // counters of unmounted restart mounts
}

func newMountRig(e env, spec mountSpec) (*mountRig, error) {
	r := &mountRig{spec: spec, env: e, restarted: tally{}}
	for rank := 0; rank < 2; rank++ {
		im := makeImage(e.seed, rank, e.scale(spec.imageSize), spec.compressible)
		r.ims = append(r.ims, im)
		r.bufs = append(r.bufs, make([]byte, len(im.data)))
	}
	var err error
	if r.direct, err = directMBps(e.dir, r.ims); err != nil {
		return nil, err
	}
	root, err := osfs.New(e.dir)
	if err != nil {
		return nil, err
	}
	opts := core.Options{}
	if spec.codec != nil {
		opts.Codec = timedCodec{Codec: spec.codec, p: e.p}
	}
	if r.ckpt, err = core.Mount(&backend{FS: root, p: e.p}, opts); err != nil {
		return nil, err
	}
	r.restartBack = &backend{FS: root, p: e.p, readLatency: spec.readLatency}
	// The first round creates the checkpoint files; later rounds
	// overwrite them in place.
	if a, f := r.round(0, &recorder{}); f > 0 {
		r.close()
		return nil, fmt.Errorf("warm-up round: %d of %d operations failed", f, a)
	}
	return r, nil
}

func (r *mountRig) userBytes() int64    { return totalBytes(r.ims) }
func (r *mountRig) directMBps() float64 { return r.direct }
func (r *mountRig) counts(t tally)      { addCore(t, r.ckpt.Stats()); t.add(r.restarted) }
func (r *mountRig) close() error        { return r.ckpt.Unmount() }

func (r *mountRig) round(n int, rec *recorder) (attempted, failed int) {
	p := r.env.p
	root := p.tracer.Start("round")
	defer root.End()
	bad := func(what string, im *image, err error) {
		failed++
		r.env.logf("round %d: %s %s: %v", n, what, im.name, err)
	}

	for i := range r.ims {
		r.ims[i].next(n)
	}
	flag := vfs.WriteOnly | vfs.Create
	if r.spec.codec != nil {
		// Containers are logs: rewriting one in place appends frames, so
		// each compressed checkpoint starts a fresh container.
		flag |= vfs.Trunc
	}
	attempted += len(r.ims)
	d, errs := ranks(r.ims, func(im *image) error { return r.checkpoint(im, flag, root.Context(), rec) })
	ok := true
	for i, err := range errs {
		im := &r.ims[i]
		if err == nil && r.spec.codec == nil {
			// Raw mounts are byte-identical passthrough.
			var same bool
			if same, err = sameFile(filepath.Join(r.env.dir, im.name), im.data); err == nil && !same {
				err = fmt.Errorf("backend file differs from the image")
			}
		}
		if err != nil {
			bad("checkpoint", im, err)
			ok = false
		}
	}
	if ok {
		rec.ckpt(mbps(r.userBytes(), d), d)
	}

	for _, b := range r.bufs {
		clear(b)
	}
	attempted += len(r.ims)
	m, err := core.Mount(r.restartBack, core.Options{ReadAhead: r.spec.readAhead})
	if err != nil {
		for i := range r.ims {
			bad("restart mount for", &r.ims[i], err)
		}
		return attempted, failed
	}
	d, errs = ranks(r.ims, func(im *image) error { return r.restart(m, im, root.Context(), rec) })
	uerr := m.Unmount()
	addCore(r.restarted, m.Stats())
	ok = uerr == nil
	if uerr != nil {
		r.env.logf("round %d: restart unmount: %v", n, uerr)
		failed++
	}
	for i, err := range errs {
		im := &r.ims[i]
		if err == nil && !bytes.Equal(r.bufs[i], im.data) {
			err = fmt.Errorf("restarted bytes differ from the image")
		}
		if err != nil {
			bad("restart", im, err)
			ok = false
		}
	}
	if ok {
		rec.restart(mbps(r.userBytes(), d), d)
	}
	return attempted, failed
}

// checkpoint is one rank's dump: open, the BLCR write stream, close.
func (r *mountRig) checkpoint(im *image, flag vfs.OpenFlag, parent obs.SpanContext, rec *recorder) error {
	p := r.env.p
	sp := p.tracer.StartChild("checkpoint "+im.name, parent)
	defer sp.End()
	ctx := sp.Context()
	var f vfs.File
	if _, err := p.call("core.open", ctx, nil, func() (err error) {
		f, err = r.ckpt.Open(im.name, flag)
		return err
	}); err != nil {
		return err
	}
	lat := make([]int64, 0, len(im.sizes))
	err := im.each(func(off, n int64) error {
		d, err := p.call("core.write", ctx, &p.coreWriteNs, func() error {
			_, err := f.WriteAt(im.data[off:off+n], off)
			return err
		})
		lat = append(lat, int64(d))
		return err
	})
	rec.writes(lat)
	if err != nil {
		f.Close()
		return err
	}
	_, err = p.call("core.close", ctx, &p.coreCloseNs, f.Close)
	return err
}

// restart is one rank's read-back through the restart mount m, in the
// image's BLCR call sizes, into the rank's restart buffer.
func (r *mountRig) restart(m *core.FS, im *image, parent obs.SpanContext, rec *recorder) error {
	p := r.env.p
	sp := p.tracer.StartChild("restart "+im.name, parent)
	defer sp.End()
	ctx := sp.Context()
	buf := r.bufs[im.rank]
	var f vfs.File
	if _, err := p.call("core.open", ctx, &p.coreOpenNs, func() (err error) {
		f, err = m.Open(im.name, vfs.ReadOnly)
		return err
	}); err != nil {
		return err
	}
	lat := make([]int64, 0, len(im.sizes))
	err := im.each(func(off, n int64) error {
		d, err := p.call("core.read", ctx, &p.coreReadNs, func() error {
			got, err := f.ReadAt(buf[off:off+n], off)
			if int64(got) == n {
				return nil
			}
			if err == nil || err == io.EOF {
				err = fmt.Errorf("short read at %d: %d of %d bytes", off, got, n)
			}
			return err
		})
		lat = append(lat, int64(d))
		return err
	})
	rec.reads(lat)
	if err != nil {
		f.Close()
		return err
	}
	_, err = p.call("core.close", ctx, nil, f.Close)
	return err
}

// addCore adds the mount counters the benchmark reports to t.
func addCore(t tally, s core.Stats) {
	t["core.writes"] += s.Writes
	t["core.reads"] += s.Reads
	t["core.chunks_flushed"] += s.ChunksFlushed
	t["core.backend_writes"] += s.BackendWrites
	t["core.pool_waits"] += s.PoolWaits
	t["codec.bytes_in"] += s.CodecBytesIn
	t["codec.bytes_out"] += s.CodecBytesOut
	t["codec.raw_frames"] += s.RawFrames
	t["core.prefetch_hits"] += s.PrefetchHits
	t["core.prefetch_misses"] += s.PrefetchMisses
	t["core.prefetch_wasted"] += s.PrefetchWasted
}
