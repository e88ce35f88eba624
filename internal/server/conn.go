package server

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"time"

	"crfs/internal/core"
	"crfs/internal/metrics"
	"crfs/internal/obs"
	"crfs/internal/vfs"
)

// maxRequestLine bounds the first line of a connection (and every v1
// request line): names are short, so anything longer is garbage.
const maxRequestLine = 4096

// maxRejectedIDs bounds the set of request ids whose body frames are
// being drained after an early error response; a client pushing past it
// is abusing the protocol and the connection is dropped.
const maxRejectedIDs = 64

// srvConn is one served connection, either protocol version.
type srvConn struct {
	srv *Server
	nc  net.Conn
	br  *bufio.Reader

	out  chan outFrame
	dead chan struct{} // closed on teardown; unblocks every sender/receiver
	once sync.Once

	mu          sync.Mutex
	inFlight    map[uint32]*inReq
	rejected    map[uint32]bool
	expectBody  int // in-flight requests still owed body frames
	pendingResp int // responses queued but not yet counted complete
	draining    bool
	v2          bool
	v1busy      bool

	handlers sync.WaitGroup
}

// outFrame is one queued frame toward the client. last marks the
// graceful-close sentinel: flush everything written so far, then close.
// pooled hands payload's ownership to the writer, which returns it to
// the payload pool once the frame is written.
type outFrame struct {
	typ     uint8
	reqID   uint32
	payload []byte
	pooled  bool
	last    bool
}

// inReq is one in-flight v2 request's routing state.
type inReq struct {
	body       chan bodyItem
	abort      chan struct{} // closed by complete(); unblocks a routeBody send after the handler quit
	expectBody bool
	bodyDone   bool
}

// bodyItem is one routed body frame (or the end-of-body marker). data is
// a pooled payload owned by whoever holds the item.
type bodyItem struct {
	data []byte
	end  bool
}

// handleConn sniffs the protocol version from the first line and serves
// the connection to completion.
func (s *Server) handleConn(nc net.Conn) {
	c := &srvConn{
		srv:      s,
		nc:       nc,
		br:       bufio.NewReaderSize(nc, 64<<10),
		out:      make(chan outFrame, 16),
		dead:     make(chan struct{}),
		inFlight: make(map[uint32]*inReq),
		rejected: make(map[uint32]bool),
	}
	if !s.register(c) {
		nc.Close()
		return
	}
	defer s.unregister(c)
	defer c.handlers.Wait()
	defer c.close()

	nc.SetReadDeadline(time.Now().Add(s.cfg.ReadTimeout))
	line, err := readLine(c.br, maxRequestLine)
	if err != nil {
		return
	}
	if strings.TrimRight(line, "\r\n") == strings.TrimRight(HelloLine, "\n") {
		c.serveV2()
		return
	}
	c.mu.Lock()
	c.v1busy = true
	dead := c.isDeadLocked()
	c.mu.Unlock()
	if dead {
		return
	}
	c.serveV1(line)
}

func (c *srvConn) isDeadLocked() bool {
	select {
	case <-c.dead:
		return true
	default:
		return false
	}
}

// close is the forced teardown: it unblocks every goroutine touching
// the connection (reader, writer, handlers waiting on body frames or
// the out queue) and lets in-flight PUT handlers abort their staging
// temps. Idempotent.
func (c *srvConn) close() {
	c.once.Do(func() {
		close(c.dead)
		c.nc.Close()
	})
}

// beginDrain moves the connection into drain mode: in-flight requests
// run to completion, new requests are refused, and the connection
// closes once idle (immediately, if it already is).
func (c *srvConn) beginDrain() {
	c.mu.Lock()
	c.draining = true
	v2 := c.v2
	idle := (v2 && len(c.inFlight) == 0 && c.pendingResp == 0) || (!v2 && !c.v1busy)
	c.mu.Unlock()
	if !idle {
		return
	}
	if v2 {
		c.queueClose()
	} else {
		c.close()
	}
}

// queueClose enqueues the graceful-close sentinel: the writer flushes
// everything queued before it, then closes the connection.
func (c *srvConn) queueClose() {
	c.sendFrame(outFrame{last: true})
}

// sendFrame queues one frame toward the client, giving up if the
// connection is being torn down.
func (c *srvConn) sendFrame(f outFrame) bool {
	select {
	case c.out <- f:
		return true
	case <-c.dead:
		return false
	}
}

// writer is the single goroutine writing the connection: it serializes
// frames from every handler, applies the write deadline, flushes when
// the queue momentarily empties, and keeps the read deadline pushed
// forward while it is making progress (a connection busy streaming a
// long GET must not be reaped as idle).
func (c *srvConn) writer() {
	bw := bufio.NewWriterSize(c.nc, 64<<10)
	cfg := &c.srv.cfg
	for {
		select {
		case f := <-c.out:
			c.nc.SetWriteDeadline(time.Now().Add(cfg.WriteTimeout))
			if f.last {
				bw.Flush()
				c.close()
				return
			}
			var err error
			if len(f.payload) > bw.Available() {
				// A payload that would overflow the buffer goes straight to
				// the socket behind whatever is buffered: one writev, no
				// copy through bw.
				if err = bw.Flush(); err == nil {
					err = WriteFrame(c.nc, f.typ, f.reqID, f.payload)
				}
			} else {
				err = WriteFrame(bw, f.typ, f.reqID, f.payload)
			}
			if f.pooled {
				PutPayload(f.payload)
			}
			if err != nil {
				c.close()
				return
			}
			if len(c.out) == 0 {
				if err := bw.Flush(); err != nil {
					c.close()
					return
				}
				c.bumpReadDeadline()
			}
		case <-c.dead:
			return
		}
	}
}

// readWindow returns how long the reader may wait for the next frame:
// the (short) ReadTimeout while a request body is owed, the (long)
// IdleTimeout otherwise.
func (c *srvConn) readWindow() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.expectBody > 0 {
		return c.srv.cfg.ReadTimeout
	}
	return c.srv.cfg.IdleTimeout
}

func (c *srvConn) bumpReadDeadline() {
	c.nc.SetReadDeadline(time.Now().Add(c.readWindow()))
}

// ---- protocol v2 ----

// serveV2 runs the framed protocol: one reader (this goroutine), one
// writer, and a handler goroutine per in-flight request.
func (c *srvConn) serveV2() {
	c.mu.Lock()
	c.v2 = true
	c.mu.Unlock()
	go c.writer()
	// trace=1 advertises the TRACE verb and the optional trailing
	// "T=<id>" verb-line field; older clients ignore unknown hello
	// fields, older servers never emit it, so both directions degrade.
	hello := fmt.Sprintf("crfsd/2 maxinflight=%d maxframe=%d trace=1",
		c.srv.cfg.MaxInFlight, MaxFramePayload)
	if !c.sendFrame(outFrame{typ: FrameHello, payload: []byte(hello)}) {
		return
	}
	for {
		c.bumpReadDeadline()
		hdr, payload, err := ReadFrame(c.br)
		if err != nil {
			if errors.Is(err, ErrProtocol) {
				c.fatal(err.Error())
			}
			return
		}
		if !c.dispatch(hdr, payload) {
			return
		}
	}
}

// fatal reports a connection-level protocol violation and closes after
// flushing the report.
func (c *srvConn) fatal(msg string) {
	c.srv.c.protocolErrors.Add(1)
	c.sendFrame(outFrame{typ: FrameErr, payload: []byte(msg)})
	c.queueClose()
}

// dispatch routes one incoming frame; false tears the connection down.
// It owns a data frame's pooled payload and passes it on to routeBody.
func (c *srvConn) dispatch(hdr Header, payload []byte) bool {
	switch hdr.Type {
	case FrameReq:
		return c.handleReq(hdr.ReqID, string(payload))
	case FrameData:
		if len(payload) == 0 {
			PutPayload(payload)
			c.fatal("server: empty data frame")
			return false
		}
		return c.routeBody(hdr.ReqID, payload, false)
	case FrameEnd:
		if hdr.Len != 0 {
			c.fatal("server: end frame with payload")
			return false
		}
		return c.routeBody(hdr.ReqID, nil, true)
	default:
		c.fatal(fmt.Sprintf("server: unexpected frame type %#x from client", hdr.Type))
		return false
	}
}

// handleReq admits (or refuses) one request and spawns its handler.
func (c *srvConn) handleReq(id uint32, line string) bool {
	if id == 0 {
		c.fatal("server: request id 0 is reserved")
		return false
	}
	req, perr := ParseRequest(line)
	c.mu.Lock()
	if _, dup := c.inFlight[id]; dup || c.rejected[id] {
		c.mu.Unlock()
		c.fatal(fmt.Sprintf("server: request id %d already in flight", id))
		return false
	}
	var reject error
	switch {
	case perr != nil:
		reject = perr
	case c.draining:
		reject = fmt.Errorf("server: draining: %w", vfs.ErrClosed)
	case len(c.inFlight) >= c.srv.cfg.MaxInFlight:
		c.srv.c.inFlightCapped.Add(1)
		reject = fmt.Errorf("server: in-flight cap %d exceeded: %w", c.srv.cfg.MaxInFlight, vfs.ErrInvalid)
	case req.Verb == "PUT" && c.srv.cfg.MaxPutBytes > 0 && req.Size > c.srv.cfg.MaxPutBytes:
		reject = fmt.Errorf("server: PUT size %d exceeds cap %d: %w", req.Size, c.srv.cfg.MaxPutBytes, vfs.ErrInvalid)
	}
	if reject != nil {
		// A refused PUT still has a body on the wire: remember the id so
		// its data frames are drained and discarded rather than fataled.
		// The raw verb is checked, not the parsed request, so even an
		// unparseable PUT line (bad size, a name with a space) gets its
		// streamed body drained instead of fataling the session.
		if f := strings.Fields(line); len(f) > 0 && f[0] == "PUT" {
			if len(c.rejected) >= maxRejectedIDs {
				c.mu.Unlock()
				c.fatal("server: too many rejected requests with pending bodies")
				return false
			}
			c.rejected[id] = true
		}
		c.mu.Unlock()
		c.srv.c.requestErrors.Add(1)
		return c.sendFrame(outFrame{typ: FrameErr, reqID: id, payload: []byte(reject.Error())})
	}
	r := &inReq{expectBody: req.Verb == "PUT"}
	if r.expectBody {
		r.body = make(chan bodyItem, 4)
		r.abort = make(chan struct{})
		c.expectBody++
	}
	c.inFlight[id] = r
	c.mu.Unlock()
	c.srv.c.requests.Add(1)
	c.handlers.Add(1)
	go func() {
		defer c.handlers.Done()
		c.run(id, req, r)
	}()
	return true
}

// routeBody delivers a data/end frame to its request handler, applying
// backpressure: a full body queue blocks the reader (and therefore the
// TCP window) until the handler catches up. The pooled data payload
// moves to the handler by reference; a frame that is not delivered
// (drained, aborted, malformed) is returned to the pool here.
func (c *srvConn) routeBody(id uint32, data []byte, end bool) bool {
	c.mu.Lock()
	r, ok := c.inFlight[id]
	if !ok {
		if c.rejected[id] {
			if end {
				delete(c.rejected, id)
			}
			c.mu.Unlock()
			PutPayload(data)
			return true
		}
		c.mu.Unlock()
		PutPayload(data)
		c.fatal(fmt.Sprintf("server: body frame for unknown request %d", id))
		return false
	}
	if !r.expectBody || r.bodyDone {
		c.mu.Unlock()
		PutPayload(data)
		c.fatal(fmt.Sprintf("server: unexpected body frame for request %d", id))
		return false
	}
	if end {
		r.bodyDone = true
		c.expectBody--
	}
	c.mu.Unlock()
	item := bodyItem{data: data, end: end}
	if !end {
		c.srv.c.bytesIn.Add(int64(len(data)))
	}
	select {
	case r.body <- item:
		return true
	case <-r.abort:
		// The handler retired this request before the body finished;
		// complete() registered the id for draining, so drop the frame.
		PutPayload(data)
		return true
	case <-c.dead:
		PutPayload(data)
		return false
	}
}

// complete finishes a request: it retires the routing state, queues the
// response frame, and — when the connection is draining — closes once
// the last response is out.
func (c *srvConn) complete(id uint32, typ uint8, payload []byte) {
	c.mu.Lock()
	r := c.inFlight[id]
	delete(c.inFlight, id)
	if r != nil && r.body != nil {
		if !r.bodyDone {
			// The handler gave up before the body finished (e.g. an early
			// write error): drain the remaining frames into the void. The
			// id is registered unconditionally — the rejected cap guards
			// against clients streaming bodies for refused requests, not
			// against requests the server itself admitted and aborted.
			c.expectBody--
			r.bodyDone = true
			c.rejected[id] = true
		}
		// Unblock a reader stuck delivering a body frame to a handler
		// that is no longer listening (the body queue may be full).
		close(r.abort)
	}
	c.pendingResp++
	c.mu.Unlock()
	if typ == FrameErr {
		c.srv.c.requestErrors.Add(1)
	}
	c.sendFrame(outFrame{typ: typ, reqID: id, payload: payload})
	c.mu.Lock()
	c.pendingResp--
	idle := len(c.inFlight) == 0 && c.pendingResp == 0
	last := c.draining && idle
	c.mu.Unlock()
	if last {
		c.queueClose()
		return
	}
	if idle {
		c.bumpReadDeadline()
	}
}

// run executes one v2 request. When tracing is on, the request gets a
// span joined to the client's trace (the propagated T= field), so one
// striped restore stitches client and daemon timelines together.
func (c *srvConn) run(id uint32, req Request, r *inReq) {
	var sp obs.Span
	if tr := c.srv.tracer; tr.Enabled() && req.Verb != "TRACE" {
		sp = tr.StartRemote("crfsd."+req.Verb, obs.TraceID(req.Trace))
		if req.Name != "" {
			sp.Attr("name", req.Name)
		}
		defer sp.End()
	}
	switch req.Verb {
	case "PING":
		c.complete(id, FrameEnd, []byte("OK crfsd/2"))
	case "STAT":
		c.complete(id, FrameEnd, []byte(statLine(c.srv)))
	case "SCRUB":
		line, err := scrubLine(c.srv.fs)
		if err != nil {
			c.complete(id, FrameErr, []byte(err.Error()))
			return
		}
		c.complete(id, FrameEnd, []byte(line))
	case "TRACE":
		c.runTrace(id, req)
	case "LIST":
		c.runList(id)
	case "DEL":
		// Idempotent: deleting a name that is already gone succeeds, so
		// distributed cleanup (stripe rebalance, stray GC) can retry and
		// race freely.
		if err := c.srv.fs.Remove(req.Name); err != nil && !errors.Is(err, vfs.ErrNotExist) {
			c.complete(id, FrameErr, []byte(err.Error()))
			return
		}
		c.complete(id, FrameEnd, []byte("OK"))
	case "GET":
		t0 := time.Now()
		c.runGet(id, req.Name, sp.Context())
		c.srv.getSeconds.Observe(int64(time.Since(t0)))
	case "PUT":
		t0 := time.Now()
		c.runPut(id, req, r, sp.Context())
		c.srv.putSeconds.Observe(int64(time.Since(t0)))
	}
}

// runTrace streams the daemon's span ring — optionally filtered to one
// trace ID — as a JSON records body (obs.MarshalRecords format), closed
// by an "OK <count>" end frame. The dump is records, not chrome events:
// the collector (crfscp -trace) merges rings from every node before the
// final chrome conversion.
func (c *srvConn) runTrace(id uint32, req Request) {
	var recs []obs.SpanRecord
	if req.Trace != 0 {
		recs = c.srv.tracer.TraceSpans(obs.TraceID(req.Trace))
	} else {
		recs = c.srv.tracer.Snapshot()
	}
	body, err := obs.MarshalRecords(recs)
	if err != nil {
		c.complete(id, FrameErr, []byte(err.Error()))
		return
	}
	for off := 0; off < len(body); off += DataChunk {
		end := off + DataChunk
		if end > len(body) {
			end = len(body)
		}
		if !c.sendFrame(outFrame{typ: FrameData, reqID: id, payload: body[off:end]}) {
			return
		}
		c.srv.c.bytesOut.Add(int64(end - off))
	}
	c.complete(id, FrameEnd, []byte(fmt.Sprintf("OK %d", len(recs))))
}

// runList streams the store's object names (staging temps excluded),
// newline-terminated, as data frames closed by an "OK <count>" end frame.
func (c *srvConn) runList(id uint32) {
	names, err := c.srv.ListNames()
	if err != nil {
		c.complete(id, FrameErr, []byte(err.Error()))
		return
	}
	var buf []byte
	flush := func() bool {
		if len(buf) == 0 {
			return true
		}
		// The writer consumes payloads by reference, so each frame gets
		// its own slice.
		if !c.sendFrame(outFrame{typ: FrameData, reqID: id, payload: buf}) {
			return false
		}
		c.srv.c.bytesOut.Add(int64(len(buf)))
		buf = nil
		return true
	}
	for _, n := range names {
		if len(buf)+len(n)+1 > DataChunk {
			if !flush() {
				return
			}
		}
		buf = append(buf, n...)
		buf = append(buf, '\n')
	}
	if !flush() {
		return
	}
	c.complete(id, FrameEnd, []byte(fmt.Sprintf("OK %d", len(names))))
}

// runGet streams a file as data frames. Any failure — before the first
// byte or mid-stream — is an error frame, never bytes on the body
// stream, so the client can never mistake error text for file content.
func (c *srvConn) runGet(id uint32, name string, ctx obs.SpanContext) {
	f, err := c.srv.fs.Open(name, vfs.ReadOnly)
	if err != nil {
		c.complete(id, FrameErr, []byte(err.Error()))
		return
	}
	defer f.Close()
	setSpanContext(f, ctx)
	info, err := f.Stat()
	if err != nil {
		c.complete(id, FrameErr, []byte(err.Error()))
		return
	}
	size := info.Size
	var off int64
	for off < size {
		want := int64(DataChunk)
		if size-off < want {
			want = size - off
		}
		// Each frame reads into its own pooled buffer, which the writer
		// returns once the frame is on the wire.
		buf := GetPayload()
		n, rerr := f.ReadAt(buf[:want], off)
		if n > 0 {
			if !c.sendFrame(outFrame{typ: FrameData, reqID: id, payload: buf[:n], pooled: true}) {
				PutPayload(buf)
				return
			}
			off += int64(n)
			c.srv.c.bytesOut.Add(int64(n))
		} else {
			PutPayload(buf)
		}
		if rerr != nil && !errors.Is(rerr, io.EOF) {
			c.complete(id, FrameErr, []byte(rerr.Error()))
			return
		}
		if n == 0 {
			// A short read below the promised size must fail loudly, not
			// silently truncate the response.
			c.complete(id, FrameErr, []byte(fmt.Sprintf(
				"server: GET %s: short read at %d of %d", name, off, size)))
			return
		}
	}
	c.srv.c.getsServed.Add(1)
	c.complete(id, FrameEnd, []byte(fmt.Sprintf("OK %d", size)))
}

// runPut streams the request body into a staging temp and commits it
// under the target name only on clean completion.
func (c *srvConn) runPut(id uint32, req Request, r *inReq, ctx obs.SpanContext) {
	src := func() ([]byte, error) {
		select {
		case item := <-r.body:
			if item.end {
				return nil, io.EOF
			}
			return item.data, nil
		case <-c.dead:
			return nil, fmt.Errorf("server: connection lost mid-PUT: %w", net.ErrClosed)
		}
	}
	n, err := c.srv.stagePut(req.Name, req.Size, src, ctx)
	if err != nil {
		c.complete(id, FrameErr, []byte(err.Error()))
		// Frames queued before the abort are never consumed; return their
		// buffers. One the reader delivers after this drain is left to the
		// garbage collector.
		for {
			select {
			case item := <-r.body:
				PutPayload(item.data)
			default:
				return
			}
		}
	}
	c.complete(id, FrameEnd, []byte(fmt.Sprintf("OK %d", n)))
}

// ---- protocol v1 (legacy one-shot) ----

// serveV1 serves a single legacy request and closes. Two wire-level v1
// bugs are fixed relative to the original daemon: a GET that fails
// mid-stream (or comes up short of the promised size) closes the
// connection instead of appending "ERR ..." after the "OK <size>"
// header for the client to parse as file bytes, and a failed PUT
// discards its staging temp instead of leaving a truncated file
// committed under the target name.
func (c *srvConn) serveV1(line string) {
	c.srv.c.connsV1.Add(1)
	defer c.close()
	req, err := ParseRequest(line)
	if err != nil {
		fmt.Fprintf(c.nc, "ERR %v\n", err)
		return
	}
	c.srv.c.requests.Add(1)
	cfg := &c.srv.cfg
	switch req.Verb {
	case "PUT":
		if cfg.MaxPutBytes > 0 && req.Size > cfg.MaxPutBytes {
			c.srv.c.requestErrors.Add(1)
			fmt.Fprintf(c.nc, "ERR server: PUT size %d exceeds cap %d\n", req.Size, cfg.MaxPutBytes)
			return
		}
		remaining := req.Size
		src := func() ([]byte, error) {
			if remaining == 0 {
				return nil, io.EOF
			}
			want := int64(DataChunk)
			if remaining < want {
				want = remaining
			}
			c.nc.SetReadDeadline(time.Now().Add(cfg.ReadTimeout))
			buf := GetPayload()
			if _, err := io.ReadFull(c.br, buf[:want]); err != nil {
				PutPayload(buf)
				return nil, fmt.Errorf("server: short PUT body: %w", err)
			}
			remaining -= want
			c.srv.c.bytesIn.Add(want)
			return buf[:want], nil
		}
		n, err := c.srv.stagePut(req.Name, req.Size, src, obs.SpanContext{})
		c.nc.SetWriteDeadline(time.Now().Add(cfg.WriteTimeout))
		if err != nil {
			c.srv.c.requestErrors.Add(1)
			fmt.Fprintf(c.nc, "ERR %v\n", err)
			return
		}
		fmt.Fprintf(c.nc, "OK %d\n", n)
	case "GET":
		f, err := c.srv.fs.Open(req.Name, vfs.ReadOnly)
		if err != nil {
			c.srv.c.requestErrors.Add(1)
			fmt.Fprintf(c.nc, "ERR %v\n", err)
			return
		}
		defer f.Close()
		info, err := f.Stat()
		if err != nil {
			c.srv.c.requestErrors.Add(1)
			fmt.Fprintf(c.nc, "ERR %v\n", err)
			return
		}
		c.nc.SetWriteDeadline(time.Now().Add(cfg.WriteTimeout))
		if _, err := fmt.Fprintf(c.nc, "OK %d\n", info.Size); err != nil {
			return
		}
		buf := GetPayload()
		defer PutPayload(buf)
		var off int64
		for off < info.Size {
			want := int64(len(buf))
			if info.Size-off < want {
				want = info.Size - off
			}
			n, rerr := f.ReadAt(buf[:want], off)
			if n > 0 {
				c.nc.SetWriteDeadline(time.Now().Add(cfg.WriteTimeout))
				if _, werr := c.nc.Write(buf[:n]); werr != nil {
					return
				}
				off += int64(n)
				c.srv.c.bytesOut.Add(int64(n))
			}
			if rerr != nil && !errors.Is(rerr, io.EOF) {
				// Mid-stream failure: the v1 framing has no way to signal
				// an error after the OK header, so the only safe move is
				// closing the connection short of the promised size.
				c.srv.c.requestErrors.Add(1)
				return
			}
			if n == 0 {
				c.srv.c.requestErrors.Add(1)
				return
			}
		}
		c.srv.c.getsServed.Add(1)
	case "LIST":
		names, err := c.srv.ListNames()
		c.nc.SetWriteDeadline(time.Now().Add(cfg.WriteTimeout))
		if err != nil {
			c.srv.c.requestErrors.Add(1)
			fmt.Fprintf(c.nc, "ERR %v\n", err)
			return
		}
		body := strings.Join(names, "\n")
		if len(names) > 0 {
			body += "\n"
		}
		if _, err := fmt.Fprintf(c.nc, "OK %d\n", len(body)); err != nil {
			return
		}
		if _, err := io.WriteString(c.nc, body); err != nil {
			return
		}
		c.srv.c.bytesOut.Add(int64(len(body)))
	case "DEL":
		err := c.srv.fs.Remove(req.Name)
		c.nc.SetWriteDeadline(time.Now().Add(cfg.WriteTimeout))
		if err != nil && !errors.Is(err, vfs.ErrNotExist) {
			c.srv.c.requestErrors.Add(1)
			fmt.Fprintf(c.nc, "ERR %v\n", err)
			return
		}
		fmt.Fprintf(c.nc, "OK\n")
	case "STAT":
		c.nc.SetWriteDeadline(time.Now().Add(cfg.WriteTimeout))
		fmt.Fprintf(c.nc, "%s\n", statLine(c.srv))
	case "TRACE":
		var recs []obs.SpanRecord
		if req.Trace != 0 {
			recs = c.srv.tracer.TraceSpans(obs.TraceID(req.Trace))
		} else {
			recs = c.srv.tracer.Snapshot()
		}
		body, err := obs.MarshalRecords(recs)
		c.nc.SetWriteDeadline(time.Now().Add(cfg.WriteTimeout))
		if err != nil {
			c.srv.c.requestErrors.Add(1)
			fmt.Fprintf(c.nc, "ERR %v\n", err)
			return
		}
		if _, err := fmt.Fprintf(c.nc, "OK %d\n", len(body)); err != nil {
			return
		}
		if _, err := c.nc.Write(body); err != nil {
			return
		}
		c.srv.c.bytesOut.Add(int64(len(body)))
	case "SCRUB":
		line, err := scrubLine(c.srv.fs)
		c.nc.SetWriteDeadline(time.Now().Add(cfg.WriteTimeout))
		if err != nil {
			c.srv.c.requestErrors.Add(1)
			fmt.Fprintf(c.nc, "ERR %v\n", err)
			return
		}
		fmt.Fprintf(c.nc, "%s\n", line)
	case "PING":
		c.nc.SetWriteDeadline(time.Now().Add(cfg.WriteTimeout))
		fmt.Fprintf(c.nc, "OK\n")
	}
}

// ---- shared request plumbing ----

// stagePut streams a PUT body into a staging temp and renames it over
// the target only after a clean close, so a failed or abandoned PUT
// never leaves a partial file visible under the target name. src yields
// successive pooled body slices and io.EOF at the end of the stream;
// stagePut owns each slice it gets and returns it to the payload pool
// once WriteAt has copied it into the mount's chunk pool.
func (s *Server) stagePut(name string, size int64, src func() ([]byte, error), ctx obs.SpanContext) (int64, error) {
	if dir, _ := vfs.Split(name); dir != "." {
		if err := s.fs.MkdirAll(dir); err != nil {
			return 0, err
		}
	}
	temp := StagingName(name, s.seq.Add(1))
	// Register the temp as live before it exists on disk, so a periodic
	// sweep can never race this PUT and reap it mid-stream.
	defer s.trackStaging(temp)()
	f, err := s.fs.Open(temp, vfs.WriteOnly|vfs.Create|vfs.Excl)
	if err != nil {
		return 0, err
	}
	setSpanContext(f, ctx)
	abort := func(cause error) (int64, error) {
		s.c.putsAborted.Add(1)
		// The close error matters on the failure path too: it is where a
		// pending backend write failure surfaces.
		if cerr := f.Close(); cerr != nil && !errors.Is(cerr, vfs.ErrClosed) {
			cause = fmt.Errorf("%w (close: %v)", cause, cerr)
		}
		if rerr := s.fs.Remove(temp); rerr != nil {
			s.cfg.Logf("crfsd: removing staging temp %s: %v", temp, rerr)
		}
		return 0, cause
	}
	var off int64
	for {
		chunk, err := src()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return abort(err)
		}
		if off+int64(len(chunk)) > size {
			PutPayload(chunk)
			return abort(fmt.Errorf("server: PUT %s: body exceeds declared size %d: %w", name, size, ErrProtocol))
		}
		_, werr := f.WriteAt(chunk, off)
		off += int64(len(chunk))
		PutPayload(chunk)
		if werr != nil {
			return abort(fmt.Errorf("server: PUT %s: %w", name, werr))
		}
	}
	if off != size {
		return abort(fmt.Errorf("server: PUT %s: short body: %d of %d bytes: %w", name, off, size, vfs.ErrInvalid))
	}
	if err := f.Close(); err != nil {
		s.c.putsAborted.Add(1)
		if rerr := s.fs.Remove(temp); rerr != nil {
			s.cfg.Logf("crfsd: removing staging temp %s: %v", temp, rerr)
		}
		return 0, fmt.Errorf("server: PUT %s: %w", name, err)
	}
	if err := s.commitStaged(temp, name); err != nil {
		return 0, err
	}
	s.c.putsCommitted.Add(1)
	return off, nil
}

// commitStaged renames the staging temp over the target. A destination
// held open by a concurrent reader refuses the re-key; that is a
// transient state, so the rename is retried briefly before giving up
// and discarding the temp.
func (s *Server) commitStaged(temp, name string) error {
	var err error
	for try := 0; try < 50; try++ {
		if err = s.fs.Rename(temp, name); err == nil {
			return nil
		}
		if !errors.Is(err, core.ErrDestinationOpen) {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	s.c.putsAborted.Add(1)
	if rerr := s.fs.Remove(temp); rerr != nil {
		s.cfg.Logf("crfsd: removing staging temp %s: %v", temp, rerr)
	}
	return fmt.Errorf("server: commit %s: %w", name, err)
}

// statLine renders the one-line STAT response (identical in both
// protocol versions) from the same metrics registry that backs the
// Prometheus exposition: the entries tagged WithStat in Metrics().
func statLine(s *Server) string {
	return metrics.StatLine(s.Metrics())
}

// setSpanContext plants a propagated trace context on a mount file
// handle so the core pipeline's spans (write, chunk seal, encode,
// backend write, prefetch) join the client's trace. Backends whose
// handles do not trace are silently skipped.
func setSpanContext(f vfs.File, ctx obs.SpanContext) {
	if !ctx.Valid() {
		return
	}
	if t, ok := f.(interface{ SetSpanContext(obs.SpanContext) }); ok {
		t.SetSpanContext(ctx)
	}
}

// scrubLine runs a scrub pass and renders its one-line summary.
func scrubLine(fs *core.FS) (string, error) {
	rep, err := fs.Scrub(core.ScrubOptions{})
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("OK containers=%d frames=%d bytes=%d corrupt_frames=%d torn=%d clean=%v",
		rep.Containers, rep.Frames, rep.Bytes, rep.CorruptFrames, rep.TornContainers, rep.Clean()), nil
}

// readLine reads one newline-terminated line of at most max bytes.
func readLine(br *bufio.Reader, max int) (string, error) {
	var sb strings.Builder
	for sb.Len() < max {
		b, err := br.ReadByte()
		if err != nil {
			return "", err
		}
		sb.WriteByte(b)
		if b == '\n' {
			return sb.String(), nil
		}
	}
	return "", fmt.Errorf("server: request line exceeds %d bytes: %w", max, ErrProtocol)
}
