package server

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"time"
)

// Client is a minimal synchronous client for the frame protocol: one
// request in flight at a time, ID assignment, deadline plumbing. The load
// generator and the tests both drive the server through it, so protocol
// drift breaks loudly in both places. Like the server's sessions, it reads
// and writes through per-connection buffers, so each request leaves in one
// write. Not safe for concurrent use; open one Client per session, and
// close it after an error from Do.
type Client struct {
	conn   net.Conn
	r      *bufio.Reader
	w      *bufio.Writer
	nextID uint64
}

// Dial opens a session to addr, failing after timeout.
func Dial(addr string, timeout time.Duration) (*Client, error) {
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, err
	}
	return newClient(conn), nil
}

func newClient(conn net.Conn) *Client {
	return &Client{conn: conn,
		r: bufio.NewReaderSize(conn, connBufBytes),
		w: bufio.NewWriterSize(conn, connBufBytes)}
}

// Close ends the session.
func (c *Client) Close() error { return c.conn.Close() }

// Conn exposes the raw connection, beneath the buffers, for chaos
// injection (slow writes, malformed frames, mid-request hangups). Bytes
// written to it bypass Do's framing, so a caller that writes to it should
// close the Client afterwards.
func (c *Client) Conn() net.Conn { return c.conn }

// Do sends one request and waits for its response. The ctx deadline, when
// present, bounds both the write and the read.
func (c *Client) Do(ctx context.Context, req Request) (Response, error) {
	c.nextID++
	req.ID = c.nextID
	dl, ok := ctx.Deadline()
	if !ok {
		dl = time.Time{}
	}
	if err := c.conn.SetDeadline(dl); err != nil {
		return Response{}, err
	}
	if err := writeFlush(c.w, req); err != nil {
		return Response{}, err
	}
	var resp Response
	if err := ReadFrame(c.r, &resp); err != nil {
		return Response{}, err
	}
	if resp.ID != req.ID {
		return Response{}, fmt.Errorf("server: response id %d for request %d", resp.ID, req.ID)
	}
	return resp, nil
}

// Create allocates an object and returns its OID.
func (c *Client) Create(ctx context.Context, size, slots int) (uint64, error) {
	resp, err := c.Do(ctx, Request{Op: OpCreate, Size: size, Slots: slots})
	if err != nil {
		return 0, err
	}
	if resp.Status != StatusOK {
		return 0, fmt.Errorf("server: create: %s (%s)", resp.Status, resp.Error)
	}
	return resp.OID, nil
}

// Set points oid's slot at dst (0 for nil), returning the old value.
func (c *Client) Set(ctx context.Context, oid uint64, slot int, dst uint64) (uint64, error) {
	resp, err := c.Do(ctx, Request{Op: OpSet, OID: oid, Slot: slot, Dst: dst})
	if err != nil {
		return 0, err
	}
	if resp.Status != StatusOK {
		return 0, fmt.Errorf("server: set: %s (%s)", resp.Status, resp.Error)
	}
	return resp.Old, nil
}

// Stats fetches the server's statistics snapshot.
func (c *Client) Stats(ctx context.Context) (*Stats, error) {
	resp, err := c.Do(ctx, Request{Op: OpStats})
	if err != nil {
		return nil, err
	}
	if resp.Status != StatusOK || resp.Stats == nil {
		return nil, fmt.Errorf("server: stats: %s (%s)", resp.Status, resp.Error)
	}
	return resp.Stats, nil
}
