package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"os"
	"sync"
	"time"

	"crfs/internal/blcr"
	"crfs/internal/osfs"
	"crfs/internal/vfs"
)

// image is one rank's checkpoint: its bytes and the BLCR write-size
// streams (Table I's mixture) that carry them.
type image struct {
	name    string
	rank    int
	data    []byte
	streams [][]int64 // each sums to len(data)
	sizes   []int64   // this round's stream
}

// streamsPerImage is how many BLCR streams an image cycles through, one
// per round: the call sizes of a run then mix several draws of the
// mixture, so latency percentiles do not hinge on one seed's few large
// regions.
const streamsPerImage = 64

// makeImage builds rank's image of size bytes from the workload seed. A
// compressible image zeroes the second half of every 4 KiB page, so
// DEFLATE halves it; otherwise every byte is random and incompressible.
func makeImage(seed int64, rank int, size int64, compressible bool) image {
	im := image{name: fmt.Sprintf("rank%d.ckpt", rank), rank: rank, data: make([]byte, size)}
	for k := int64(0); k < streamsPerImage; k++ {
		im.streams = append(im.streams, fit(blcr.Stream(size, seed*1009+int64(rank)*101+k), size))
	}
	im.sizes = im.streams[0]
	var key [32]byte
	binary.LittleEndian.PutUint64(key[:], uint64(seed))
	binary.LittleEndian.PutUint64(key[8:], uint64(rank))
	rng := rand.NewChaCha8(key)
	for i := 0; i+8 <= len(im.data); i += 8 {
		binary.LittleEndian.PutUint64(im.data[i:], rng.Uint64())
	}
	if compressible {
		for pg := int64(0); pg < size; pg += 4096 {
			clear(im.data[min(pg+2048, size):min(pg+4096, size)])
		}
	}
	return im
}

// fit trims or pads a BLCR stream to exactly size bytes, so every round
// rewrites the same files completely: calls past size are cut, and any
// shortfall goes to the largest call (a big region, as in the generator).
func fit(sizes []int64, size int64) []int64 {
	var out []int64
	left := size
	for _, n := range sizes {
		if left == 0 {
			break
		}
		n = min(n, left)
		out = append(out, n)
		left -= n
	}
	big := 0
	for i, n := range out {
		if n > out[big] {
			big = i
		}
	}
	out[big] += left
	return out
}

// next prepares the image for round n: it picks the round's stream and
// writes the round number into every 4 KiB page, so each round's
// checkpoint differs from the last and a write that never lands shows up
// as a stale page when the round is verified.
func (im *image) next(n int) {
	im.sizes = im.streams[n%len(im.streams)]
	v := uint64(n)<<8 | uint64(im.rank)
	for off := 0; off+8 <= len(im.data); off += 4096 {
		binary.LittleEndian.PutUint64(im.data[off:], v)
	}
}

// each calls fn(off, n) for every call of the image's BLCR stream.
func (im *image) each(fn func(off, n int64) error) error {
	var off int64
	for _, n := range im.sizes {
		if err := fn(off, n); err != nil {
			return err
		}
		off += n
	}
	return nil
}

// ranks runs fn once per image, one goroutine per rank, and returns the
// time from the first rank's start to the last rank's end with each
// rank's error.
func ranks(ims []image, fn func(im *image) error) (time.Duration, []error) {
	errs := make([]error, len(ims))
	var wg sync.WaitGroup
	t0 := time.Now()
	for i := range ims {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = fn(&ims[i])
		}(i)
	}
	wg.Wait()
	return time.Since(t0), errs
}

// totalBytes sums the images' sizes.
func totalBytes(ims []image) int64 {
	var n int64
	for _, im := range ims {
		n += int64(len(im.data))
	}
	return n
}

// writeStream writes im through f in its BLCR call sizes.
func writeStream(f vfs.File, im *image) error {
	return im.each(func(off, n int64) error {
		_, err := f.WriteAt(im.data[off:off+n], off)
		return err
	})
}

// directMBps is the native arm: the ranks write their streams straight to
// an osfs directory, without CRFS, overwriting files created by a first
// untimed pass, as the checkpoint rounds overwrite theirs.
func directMBps(dir string, ims []image) (float64, error) {
	back, err := osfs.New(dir)
	if err != nil {
		return 0, err
	}
	pass := func(im *image) error {
		f, err := back.Open("direct-"+im.name, vfs.WriteOnly|vfs.Create)
		if err != nil {
			return err
		}
		if err := writeStream(f, im); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}
	if _, errs := ranks(ims, pass); errors.Join(errs...) != nil {
		return 0, fmt.Errorf("native arm: %w", errors.Join(errs...))
	}
	d, errs := ranks(ims, pass)
	if err := errors.Join(errs...); err != nil {
		return 0, fmt.Errorf("native arm: %w", err)
	}
	for _, im := range ims {
		if err := back.Remove("direct-" + im.name); err != nil {
			return 0, fmt.Errorf("native arm: %w", err)
		}
	}
	return mbps(totalBytes(ims), d), nil
}

// sameFile reports whether the host file at path holds exactly want,
// reading it in 1 MiB pieces.
func sameFile(path string, want []byte) (bool, error) {
	f, err := os.Open(path)
	if err != nil {
		return false, err
	}
	defer f.Close()
	buf := make([]byte, 1<<20)
	off := 0
	for {
		n, err := f.Read(buf)
		if n > 0 {
			if off+n > len(want) || !bytes.Equal(buf[:n], want[off:off+n]) {
				return false, nil
			}
			off += n
		}
		if err == io.EOF {
			return off == len(want), nil
		}
		if err != nil {
			return false, err
		}
	}
}

// mbps converts n bytes moved in d to MB/s (10^6 bytes per second).
func mbps(n int64, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(n) / 1e6 / d.Seconds()
}
