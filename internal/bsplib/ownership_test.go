package bsplib

import (
	"bytes"
	"testing"
)

// Tests for the buffer-ownership contract of the zero-copy pipeline: the
// engine copies every payload into its own delivery buffers during the
// synchronization, so a sender regains ownership of its buffer the moment
// its Sync/Flush returns, and receivers can never observe later mutations.

// TestSentBufferMutationDoesNotReachReceiver mutates a sent buffer right
// after the sender's Sync returns, while the receiver is still reading the
// delivery. The receiver must see the original bytes: the delivered payload
// is an engine-owned copy, not a view of sender memory.
func TestSentBufferMutationDoesNotReachReceiver(t *testing.T) {
	r := &fakeRouter{procs: 2, base: 1, msgCost: 1}
	m := fakeMachine(2, false, r)
	_, err := Run(m, func(ctx *Context) {
		switch ctx.ID() {
		case 0:
			buf := []byte("payload-one")
			ctx.Send(1, 1, buf)
			ctx.Sync()
			// The engine copied the payload during the sync; this processor
			// owns buf again and may scribble on it freely - concurrently
			// with the receiver reading its delivered copy.
			for i := range buf {
				buf[i] = 'X'
			}
			ctx.Sync()
		case 1:
			ctx.Sync()
			if got := string(ctx.RecvFrom(0, 1)); got != "payload-one" {
				t.Errorf("receiver saw %q, want the bytes at send time", got)
			}
			ctx.Sync()
		}
	}, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
}

// TestPayloadBufRecyclingPreservesDeliveries leases a payload buffer, sends
// it, and after the sync leases again: the recycled backing is overwritten
// with new bytes while the first delivery must remain intact.
func TestPayloadBufRecyclingPreservesDeliveries(t *testing.T) {
	r := &fakeRouter{procs: 2, base: 1, msgCost: 1}
	m := fakeMachine(2, false, r)
	_, err := Run(m, func(ctx *Context) {
		switch ctx.ID() {
		case 0:
			b1 := ctx.PayloadBuf(8)
			for i := range b1 {
				b1[i] = 'A'
			}
			ctx.Send(1, 1, b1)
			ctx.Sync()
			b2 := ctx.PayloadBuf(8)
			for i := range b2 {
				b2[i] = 'B'
			}
			ctx.Send(1, 1, b2)
			ctx.Sync()
		case 1:
			ctx.Sync()
			if got := ctx.RecvFrom(0, 1); !bytes.Equal(got, bytes.Repeat([]byte{'A'}, 8)) {
				t.Errorf("first delivery = %q, want AAAAAAAA", got)
			}
			ctx.Sync()
			if got := ctx.RecvFrom(0, 1); !bytes.Equal(got, bytes.Repeat([]byte{'B'}, 8)) {
				t.Errorf("second delivery = %q, want BBBBBBBB", got)
			}
		}
	}, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
}

// TestForwardingReceivedPayload forwards a received slice verbatim in the
// next step. The delivery machinery must copy new payloads out before
// releasing the previous step's buffers, so forwarding an engine-owned view
// is legal under the ownership rule ("intact until the sync that delivers
// it").
func TestForwardingReceivedPayload(t *testing.T) {
	r := &fakeRouter{procs: 3, base: 1, msgCost: 1}
	m := fakeMachine(3, false, r)
	_, err := Run(m, func(ctx *Context) {
		switch ctx.ID() {
		case 0:
			ctx.Send(1, 1, []byte("relay-me"))
			ctx.Sync()
			ctx.Sync()
		case 1:
			ctx.Sync()
			got := ctx.RecvFrom(0, 1)
			ctx.Send(2, 1, got) // forward the engine-owned view itself
			ctx.Sync()
		case 2:
			ctx.Sync()
			ctx.Sync()
			if got := string(ctx.RecvFrom(1, 1)); got != "relay-me" {
				t.Errorf("forwarded payload = %q, want relay-me", got)
			}
		}
	}, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
}

// TestPayloadScratchRegrowAndArenaReuse drives both superstep arenas hard.
// Processor 0 leases more PayloadBufs per superstep than the first scratch
// backing holds, so the scratch regrows mid-step while earlier buffers of
// the same step are still unsent; every buffer carries distinct bytes.
// Processor 1 checks every delivered byte and forwards one received view
// to processor 2 in the next superstep, while that step's deliveries are
// written into the other delivery arena. Payloads grow every step, so a
// delivery that reused the arena holding the forwarded view would
// overwrite it before it is copied out.
func TestPayloadScratchRegrowAndArenaReuse(t *testing.T) {
	const steps, bufs = 4, 8
	size := func(s, i int) int { return 16*(s+1) + 3*i }
	fill := func(s, i, j int) byte { return byte(s*61 + i*17 + j) }
	check := func(who string, s, i int, got []byte) {
		if len(got) != size(s, i) {
			t.Errorf("%s: step %d buffer %d has %d bytes, want %d", who, s, i, len(got), size(s, i))
			return
		}
		for j, b := range got {
			if b != fill(s, i, j) {
				t.Errorf("%s: step %d buffer %d byte %d = %d, want %d", who, s, i, j, b, fill(s, i, j))
				return
			}
		}
	}
	r := &fakeRouter{procs: 3, base: 1, msgCost: 1}
	m := fakeMachine(3, false, r)
	_, err := Run(m, func(ctx *Context) {
		for s := 0; s < steps+2; s++ {
			switch ctx.ID() {
			case 0:
				if s >= steps {
					break
				}
				leases := make([][]byte, bufs)
				for i := range leases {
					b := ctx.PayloadBuf(size(s, i))
					if cap(b) != len(b) {
						t.Errorf("step %d buffer %d: cap %d, want cap-capped %d", s, i, cap(b), len(b))
					}
					for j := range b {
						b[j] = fill(s, i, j)
					}
					leases[i] = b
				}
				for i, b := range leases {
					check("sender", s, i, b)
					ctx.Send(1, i, b)
				}
			case 1:
				if s == 0 || s > steps {
					break
				}
				for i := 0; i < bufs; i++ {
					check("receiver", s-1, i, ctx.RecvFrom(0, i))
				}
				ctx.Send(2, 0, ctx.RecvFrom(0, bufs-1)) // forward the view itself
			case 2:
				if s >= 2 {
					check("forwardee", s-2, bufs-1, ctx.RecvFrom(1, 0))
				}
			}
			ctx.Sync()
		}
	}, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
}
