package simnet

import (
	"errors"
	"io"
	"testing"
	"time"

	"github.com/flashroute/flashroute/internal/simclock"
)

// echoNet is a one-byte toy family: a probe is its first byte, every
// probe is answered by that byte after rtt, and a zero byte is malformed.
type echoNet struct {
	rtt  time.Duration
	sent int
}

var errMalformed = errors.New("malformed probe")

func (e *echoNet) Write1(c *Conn[byte], pkt []byte, now time.Duration, stage *[]Pending[byte]) error {
	e.sent++
	if pkt[0] == 0 {
		return errMalformed
	}
	if c.ProbeCopies() == 0 {
		return nil
	}
	return c.Deliver(pkt[0], now+e.rtt, stage)
}

func (e *echoNet) Materialize(buf []byte, p byte) int {
	buf[0] = p
	return 1
}

// newEchoConn opens a Conn over a fresh echoNet on a virtual clock, with
// the calling test registered as the clock's one actor.
func newEchoConn(t *testing.T, im *Impairments) (*Conn[byte], *echoNet, *DeliveryStats, *simclock.Virtual) {
	t.Helper()
	clock := simclock.NewVirtual(time.Unix(0, 0))
	clock.AddActor()
	t.Cleanup(clock.DoneActor)
	net, stats := &echoNet{rtt: 10 * time.Millisecond}, &DeliveryStats{}
	return NewConn[byte](net, clock, clock.Now(), im, 1, stats, 0), net, stats, clock
}

// TestConnWriteDeliverRead: a written probe's response becomes readable
// exactly when its delivery time arrives (the read parks the clock
// forward to it), single and batched, and Close drains to EOF.
func TestConnWriteDeliverRead(t *testing.T) {
	c, _, stats, clock := newEchoConn(t, &Impairments{})
	var buf [1]byte

	if err := c.WritePacket([]byte{7}); err != nil {
		t.Fatal(err)
	}
	if c.Pending() != 1 {
		t.Fatalf("Pending = %d after one write, want 1", c.Pending())
	}
	if n, err := c.ReadPacket(buf[:]); err != nil || n != 1 || buf[0] != 7 {
		t.Fatalf("ReadPacket = (%d, %v) byte %d, want (1, nil) byte 7", n, err, buf[0])
	}
	if got := clock.Elapsed(); got != 10*time.Millisecond {
		t.Fatalf("response read at %v, want at its 10ms delivery time", got)
	}

	if n, err := c.WriteBatch([][]byte{{1}, {2}, {3}}); n != 3 || err != nil {
		t.Fatalf("WriteBatch = (%d, %v), want (3, nil)", n, err)
	}
	bufs, sizes := [][]byte{make([]byte, 1), make([]byte, 1), make([]byte, 1), make([]byte, 1)}, make([]int, 4)
	k, err := c.ReadBatch(bufs, sizes)
	if err != nil || k != 3 {
		t.Fatalf("ReadBatch = (%d, %v), want all 3 responses of the batch", k, err)
	}
	for i := 0; i < k; i++ {
		if sizes[i] != 1 || bufs[i][0] != byte(i+1) {
			t.Errorf("batch response %d = %v (size %d), want write order", i, bufs[i], sizes[i])
		}
	}
	if got := stats.Responses.Load(); got != 4 {
		t.Errorf("Responses = %d, want 4", got)
	}

	c.WritePacket([]byte{9})
	c.Close()
	if err := c.WritePacket([]byte{5}); !errors.Is(err, ErrClosed) {
		t.Errorf("write after Close: %v, want ErrClosed", err)
	}
	if n, err := c.ReadPacket(buf[:]); err != nil || n != 1 || buf[0] != 9 {
		t.Errorf("response scheduled before Close not drained: (%d, %v)", n, err)
	}
	if _, err := c.ReadPacket(buf[:]); err != io.EOF {
		t.Errorf("read after drain: %v, want io.EOF", err)
	}
}

// TestConnWriteBatchPartial pins the partial-write contract: a failing
// packet stops the batch at its index with its own error, the responses
// of the packets before it are still committed, and the packets after it
// were never attempted — whether the failure is the backend's or a
// write-fault window's.
func TestConnWriteBatchPartial(t *testing.T) {
	c, net, _, _ := newEchoConn(t, &Impairments{})
	n, err := c.WriteBatch([][]byte{{1}, {2}, {0}, {4}})
	if n != 2 || err != errMalformed {
		t.Fatalf("WriteBatch = (%d, %v), want (2, errMalformed)", n, err)
	}
	if net.sent != 3 {
		t.Errorf("backend saw %d packets, want 3 (the one after the failure is not attempted)", net.sent)
	}
	if c.Pending() != 2 {
		t.Errorf("Pending = %d, want the 2 responses elicited before the failure", c.Pending())
	}

	faulty := &Impairments{Faults: []FaultWindow{{Kind: FaultWriteError, Duration: time.Second}}}
	c, net, stats, _ := newEchoConn(t, faulty)
	n, err = c.WriteBatch([][]byte{{1}, {2}})
	var te *TransientError
	if n != 0 || !errors.As(err, &te) || !te.Temporary() {
		t.Fatalf("WriteBatch in a write-fault window = (%d, %v), want (0, transient)", n, err)
	}
	if net.sent != 0 || stats.WriteFaults.Load() != 1 {
		t.Errorf("faulted write reached the backend (%d) or was not counted (%d)", net.sent, stats.WriteFaults.Load())
	}
}

// TestConnReaderWake: a Reader parked on an empty inbox returns (0, nil)
// when woken, then delivers normally; Readers and the Conn drain the same
// inbox, and every handle sees EOF after Close.
func TestConnReaderWake(t *testing.T) {
	c, _, _, clock := newEchoConn(t, &Impairments{})
	r := c.NewReader()
	var buf [1]byte
	bufs, sizes := [][]byte{buf[:]}, make([]int, 1)

	woke := make(chan [2]int, 1)
	clock.AddActor()
	go func() {
		defer clock.DoneActor()
		n, err := r.ReadPacket(buf[:]) // parks: nothing scheduled
		k, err2 := r.ReadBatch(bufs, sizes)
		if err != nil || err2 != nil {
			n, k = -1, -1
		}
		woke <- [2]int{n, k}
	}()
	// Each Wake releases one blocked (or the next) read; neither has
	// anything to deliver.
	r.Wake()
	clock.Sleep(time.Millisecond)
	r.Wake()
	if got := <-woke; got != [2]int{0, 0} {
		t.Fatalf("woken reads returned %v, want (0, nil) twice", got)
	}

	// A write's own reader wakeup may surface as one more (0, nil) before
	// the response is deliverable: callers re-read.
	c.WritePacket([]byte{3})
	n, err := r.ReadPacket(buf[:])
	for n == 0 && err == nil {
		n, err = r.ReadPacket(buf[:])
	}
	if err != nil || n != 1 || buf[0] != 3 {
		t.Fatalf("Reader.ReadPacket = (%d, %v) byte %d, want the response", n, err, buf[0])
	}
	c.WritePacket([]byte{4})
	k, err := r.ReadBatch(bufs, sizes)
	for k == 0 && err == nil {
		k, err = r.ReadBatch(bufs, sizes)
	}
	if err != nil || k != 1 || buf[0] != 4 {
		t.Fatalf("Reader.ReadBatch = (%d, %v) byte %d, want the response", k, err, buf[0])
	}
	c.Close()
	if _, err := r.ReadPacket(buf[:]); err != io.EOF {
		t.Errorf("Reader after Close: %v, want io.EOF", err)
	}
	if _, err := r.ReadBatch(bufs, sizes); err != io.EOF {
		t.Errorf("Reader.ReadBatch after Close: %v, want io.EOF", err)
	}
}

// TestConnCycleNoAllocs: a steady-state write → deliver → read cycle must
// not allocate, through the Conn and through a Reader alike — in
// particular the payload must not escape on its way through the Backend
// interface, which costs one heap object per packet read.
func TestConnCycleNoAllocs(t *testing.T) {
	c, net, _, _ := newEchoConn(t, &Impairments{})
	net.rtt = 0 // deliverable at once: the cycle never parks
	r := c.NewReader()
	pkt, buf := []byte{7}, make([]byte, 1)
	bufs, sizes := [][]byte{buf}, make([]int, 1)
	for name, read := range map[string]func(){
		"Conn.ReadPacket":   func() { c.ReadPacket(buf) },
		"Conn.ReadBatch":    func() { c.ReadBatch(bufs, sizes) },
		"Reader.ReadPacket": func() { r.ReadPacket(buf) },
		"Reader.ReadBatch":  func() { r.ReadBatch(bufs, sizes) },
	} {
		cycle := func() {
			if err := c.WritePacket(pkt); err != nil {
				t.Fatal(err)
			}
			read()
		}
		cycle() // warm: heap and scratch growth
		if avg := testing.AllocsPerRun(200, cycle); avg != 0 {
			t.Errorf("write + %s allocates %.1f objects per cycle", name, avg)
		}
	}
}
