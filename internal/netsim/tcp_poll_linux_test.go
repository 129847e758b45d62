package netsim

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/wire"
)

// warm makes r hot: a read that waits less than the bound (which a read
// of a byte already there does, unless the machine took the CPU away).
func warm(t *testing.T, w io.Writer, r *pollReader) {
	t.Helper()
	for try := 0; try < 100; try++ {
		w.Write([]byte{'w'})
		if n, err := r.Read(make([]byte, 1)); n != 1 || err != nil {
			t.Fatalf("warm-up Read = %d, %v", n, err)
		}
		if r.wait < r.bound {
			return
		}
	}
	t.Fatalf("100 reads of a byte already there each took over %v", r.bound)
}

// hotReader returns a warm reader whose bound is stretched to bound, on
// an endpoint whose last big frame is a bound ago.
func hotReader(t *testing.T, bound time.Duration) (net.Conn, *pollReader, *TCPEndpoint) {
	t.Helper()
	w, rd, e := readerPair(t)
	r := rd.(*pollReader)
	r.bound = bound
	e.lastBig.Store(-int64(r.bound))
	warm(t, w, r)
	return w, r, e
}

// counts formats what e's readers did since the counts before.
func counts(e *TCPEndpoint, polled, parked uint64) string {
	return fmt.Sprintf("polled +%d parked +%d", e.RecvPolled()-polled, e.RecvParked()-parked)
}

func TestTCPReaderCatchesWriteInsideBound(t *testing.T) {
	w, r, e := hotReader(t, 10*time.Second) // every write below lands inside it
	polled, parked := e.RecvPolled(), e.RecvParked()
	buf := make([]byte, 8)
	for i := 0; i < 5; i++ {
		go func() {
			time.Sleep(10 * time.Millisecond)
			w.Write([]byte("late"))
		}()
		if n, err := r.Read(buf); err != nil || string(buf[:n]) != "late" {
			t.Fatalf("Read = %q, %v", buf[:n], err)
		}
	}
	if got := counts(e, polled, parked); got != "polled +5 parked +0" {
		t.Errorf("five waits of 10ms inside a 10s bound: %s", got)
	}
}

func TestTCPReaderParksAfterSilence(t *testing.T) {
	w, r, e := hotReader(t, pollBound)
	polled, parked := e.RecvPolled(), e.RecvParked()
	go func() {
		time.Sleep(50 * time.Millisecond) // 500 bounds
		w.Write([]byte("late"))
	}()
	buf := make([]byte, 8)
	if n, err := r.Read(buf); err != nil || string(buf[:n]) != "late" {
		t.Fatalf("Read = %q, %v", buf[:n], err)
	}
	if got := counts(e, polled, parked); got != "polled +0 parked +1" {
		t.Errorf("after 50ms of silence: %s", got)
	}
	if r.wait < r.bound {
		t.Error("a 50ms wait left the reader hot")
	}
}

func TestTCPReaderSpacedFramesNeverPoll(t *testing.T) {
	// Frames further apart than the bound: every wait is a long one, so
	// the connection never turns hot and never probes.
	w, rd, e := readerPair(t)
	br := bufio.NewReaderSize(rd, readBufSize)
	raw := encoded(t, frameTo(1, 2, "tick"))
	const frames = 100
	read := make(chan struct{})
	go func() {
		for i := 0; i < frames; i++ {
			time.Sleep(20 * pollBound)
			w.Write(raw)
			<-read
		}
	}()
	for i := 0; i < frames; i++ {
		if _, err := wire.ReadFrame(br); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		read <- struct{}{}
	}
	if got := e.RecvPolled(); got != 0 {
		t.Errorf("polled reads = %d over %d frames spaced %v apart, want 0", got, frames, 20*pollBound)
	}
	if got := e.RecvParked(); got < frames*9/10 {
		t.Errorf("parked reads = %d over %d spaced frames", got, frames)
	}
}

func TestTCPReaderBigFramesPark(t *testing.T) {
	// An endpoint moving big frames keeps the collector busy and must
	// leave it the idle time: for one bound after a bigFrame moved, read
	// or sent, its readers are not hot.
	w, r, e := hotReader(t, time.Second)
	buf := make([]byte, readBufSize)
	read := func(want string) {
		t.Helper()
		go func() {
			time.Sleep(5 * time.Millisecond)
			w.Write([]byte("next"))
		}()
		polled, parked := e.RecvPolled(), e.RecvParked()
		if n, err := r.Read(buf); err != nil || string(buf[:n]) != "next" {
			t.Fatalf("Read = %.20q, %v", buf[:n], err)
		}
		if got := counts(e, polled, parked); got != want {
			t.Errorf("%s, want %s", got, want)
		}
	}
	read("polled +1 parked +0")

	w.Write(make([]byte, bigFrame))
	for got := 0; got < bigFrame; {
		time.Sleep(5 * time.Millisecond) // let the segments arrive: one read takes them
		n, err := r.Read(buf)
		if err != nil {
			t.Fatal(err)
		}
		got += n
	}
	read("polled +0 parked +1")
	e.lastBig.Store(-int64(r.bound)) // a bound has passed
	read("polled +1 parked +0")

	// The same from the sending side, which is all a client of big
	// requests and small replies would see.
	elsewhere, _ := connPair(t)
	e.node, e.conns = 1, map[wire.NodeID]*tcpConn{2: {c: elsewhere}}
	if err := e.Send(frameTo(1, 2, string(make([]byte, bigFrame)))); err != nil {
		t.Fatal(err)
	}
	read("polled +0 parked +1")
}

// parkedReader starts a Read on a fresh connection's reader and returns
// once it sleeps in the netpoller; done yields when the Read returned.
func parkedReader(t *testing.T) (w net.Conn, done chan time.Time) {
	t.Helper()
	w, rd, _ := readerPair(t)
	done = make(chan time.Time, 1)
	go func() {
		rd.Read(make([]byte, 1))
		done <- time.Now()
	}()
	for !rd.(*pollReader).asleep.Load() {
		time.Sleep(time.Millisecond)
	}
	return w, done
}

func TestTCPReaderPollsBesideSleepers(t *testing.T) {
	// A hot reader with idle neighbours keeps polling — a daemon always
	// has a listener and usually a quiet peer — and parks the moment one of
	// them has something to read: the scheduler goes to the netpoller only
	// when nothing is runnable, and a polling reader always is.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	w, r, e := hotReader(t, 10*time.Second)
	sleeperW, sleeperDone := parkedReader(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	watch(ln, nil)
	defer func() { unwatch(ln); ln.Close() }()
	accepted := make(chan time.Time, 1)
	go func() {
		if c, err := ln.Accept(); err == nil {
			accepted <- time.Now()
			c.Close()
		}
	}()

	buf := make([]byte, 8)
	polled, parked := e.RecvPolled(), e.RecvParked()
	go func() {
		time.Sleep(10 * time.Millisecond)
		w.Write([]byte("mine"))
	}()
	if n, err := r.Read(buf); err != nil || string(buf[:n]) != "mine" {
		t.Fatalf("Read = %q, %v", buf[:n], err)
	}
	if got := counts(e, polled, parked); got != "polled +1 parked +0" {
		t.Errorf("beside a parked reader and a listener: %s", got)
	}

	for _, c := range []struct {
		name  string
		rouse func()
		woke  chan time.Time
	}{
		{"a parked reader's socket", func() { sleeperW.Write([]byte{'x'}) }, sleeperDone},
		{"the listener", func() {
			if c, err := net.Dial("tcp", ln.Addr().String()); err == nil {
				c.Close()
			}
		}, accepted},
	} {
		polled, parked = e.RecvPolled(), e.RecvParked()
		read := make(chan error, 1)
		go func() {
			_, err := r.Read(buf)
			read <- err
		}()
		time.Sleep(5 * time.Millisecond) // r polls: it is hot, and nothing is readable
		start := time.Now()
		c.rouse()
		select {
		case at := <-c.woke:
			late := at.Sub(start)
			t.Logf("%s was served %v after it turned readable", c.name, late)
			if late > 2*time.Millisecond {
				t.Errorf("%s waited %v beside a reader with 10s left to poll", c.name, late)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("%s was never served", c.name)
		}
		w.Write([]byte("mine"))
		if err := <-read; err != nil {
			t.Fatal(err)
		}
		if got := counts(e, polled, parked); got != "polled +0 parked +1" {
			t.Errorf("when %s turned readable: %s", c.name, got)
		}
	}
}

func watchedNow() int { return len(*watchList.Load()) }

func TestTCPWatchListEmptiesOnClose(t *testing.T) {
	a, b := tcpPair(t) // watches something, so the list exists below
	before := watchedNow() - 2
	if err := a.Send(frameTo(1, 2, "ping")); err != nil {
		t.Fatal(err)
	}
	recvWithin(t, b, 2*time.Second)
	stranger, err := net.Dial("tcp", a.ListenAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer stranger.Close()
	for deadline := time.Now().Add(2 * time.Second); watchedNow() != before+5; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("watching %d descriptors, want %d: two listeners, both ends of a connection and a stranger's", watchedNow()-before, 5)
		}
	}
	a.Close()
	b.Close()
	if got := watchedNow(); got != before {
		t.Errorf("%d descriptors still watched after Close", got-before)
	}
}

func TestTCPReaderCloseWhilePolling(t *testing.T) {
	// RawConn.Read holds the descriptor while the callback polls, so a
	// Close waits for the probe to give up: one bound at most (100 µs
	// as shipped), then the Read fails.
	const bound = 30 * time.Millisecond
	w, c := connPair(t)
	e := new(TCPEndpoint)
	e.lastBig.Store(-int64(bound))
	r := e.reader(c).(*pollReader)
	r.bound = bound
	warm(t, w, r)
	done := make(chan error)
	go func() {
		_, err := r.Read(make([]byte, 1))
		done <- err
	}()
	time.Sleep(2 * time.Millisecond) // the reader is hot and has nothing to read: it polls
	start := time.Now()
	unwatch(c)
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took > bound+10*time.Millisecond {
		t.Errorf("Close took %v with the reader polling, want one bound (%v) at most", took, bound)
	}
	select {
	case err := <-done:
		if err == nil {
			t.Error("Read on a closed connection returned no error")
		}
	case <-time.After(bound + time.Second):
		t.Fatal("Read still polling a closed connection a second past its bound")
	}
	if r.asleep.Load() {
		t.Error("the reader still shows as parked after its Read failed")
	}
}

// TestTCPEchoProcess is no test of its own: it is the echo server that
// TestTCPHotConnectionDoesNotStarveOthers runs in a second process.
func TestTCPEchoProcess(t *testing.T) {
	if os.Getenv("NETSIM_TCP_ECHO") == "" {
		t.Skip("helper process of TestTCPHotConnectionDoesNotStarveOthers")
	}
	srv, err := ListenTCP(1, "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	fmt.Println(srv.ListenAddr())
	go echo(srv)
	io.Copy(io.Discard, os.Stdin) // until the parent hangs up
}

func TestTCPHotConnectionDoesNotStarveOthers(t *testing.T) {
	// One P, as proxyd's benchmark rig has it, and a peer in a process of
	// its own: one connection ping-pongs flat out and its reader polls, a
	// second speaks every 10 ms, and a stranger dials the busy endpoint's
	// listener. The quiet reader and the listener sleep in the netpoller,
	// which the scheduler visits only when the P has nothing to run (or
	// every 10 ms); a reader that polled regardless kept it away for 9 ms
	// at a time. (In one process the busy connection's two ends share the
	// P, find each other asleep with something to read, and never poll.)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	peer := exec.Command(os.Args[0], "-test.run=^TestTCPEchoProcess$")
	peer.Env = append(os.Environ(), "NETSIM_TCP_ECHO=1", "GOMAXPROCS=1") // one CPU each
	hangUp, err := peer.StdinPipe()
	if err != nil {
		t.Fatal(err)
	}
	out, err := peer.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := peer.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() { hangUp.Close(); peer.Wait() }()
	line, err := bufio.NewReader(out).ReadString('\n')
	if err != nil {
		t.Fatalf("echo process's address: %v", err)
	}
	peers := map[wire.NodeID]string{1: strings.TrimSpace(line)}
	busy, err := ListenTCP(2, "127.0.0.1:0", peers)
	if err != nil {
		t.Fatal(err)
	}
	defer busy.Close()
	quiet, err := ListenTCP(3, "127.0.0.1:0", peers)
	if err != nil {
		t.Fatal(err)
	}
	defer quiet.Close()

	stop := make(chan struct{})
	defer close(stop)
	heard := make(chan time.Time, 1) // when busy's pump saw a stranger's frame
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
			}
			if busy.Send(frameTo(2, 1, "busy")) != nil {
				return
			}
			for reply := false; !reply; {
				f, ok := <-busy.Recv()
				if !ok {
					return
				}
				if reply = f.Kind == wire.KindReply; !reply {
					heard <- time.Now()
				}
			}
		}
	}()

	// The stranger connects and writes with blocking system calls: a
	// net.Dial would itself wait in the netpoller, on a descriptor nobody
	// watches. Its frame reaches busy's pump only once the listener's
	// goroutine has accepted the connection and its reader has run.
	listener, err := net.ResolveTCPAddr("tcp", busy.ListenAddr())
	if err != nil {
		t.Fatal(err)
	}
	sa := &syscall.SockaddrInet4{Port: listener.Port}
	copy(sa.Addr[:], listener.IP.To4())
	hello := encoded(t, frameTo(9, 2, "stranger"))
	var rtts, dials []time.Duration
	for i := 0; i < 30; i++ {
		time.Sleep(10 * time.Millisecond) // long enough for sysmon to stop looking too
		start := time.Now()
		if err := quiet.Send(frameTo(3, 1, "quiet")); err != nil {
			t.Fatal(err)
		}
		recvWithin(t, quiet, 2*time.Second)
		rtts = append(rtts, time.Since(start))
		if i%3 != 0 {
			continue
		}
		time.Sleep(10 * time.Millisecond)
		fd, err := syscall.Socket(syscall.AF_INET, syscall.SOCK_STREAM, 0)
		if err != nil {
			t.Fatal(err)
		}
		defer syscall.Close(fd)
		start = time.Now()
		if err := syscall.Connect(fd, sa); err != nil {
			t.Fatal(err)
		}
		if _, err := syscall.Write(fd, hello); err != nil {
			t.Fatal(err)
		}
		select {
		case at := <-heard:
			dials = append(dials, at.Sub(start))
		case <-time.After(2 * time.Second):
			t.Fatal("the stranger's frame never arrived")
		}
	}
	median := func(d []time.Duration) time.Duration {
		sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
		return d[len(d)/2]
	}
	// How often the busy reader catches its reply inside the bound depends
	// on what else the machine runs (nearly always, alone); never means the
	// latencies below were measured beside a reader that did not poll.
	if busy.RecvPolled() == 0 {
		t.Errorf("the busy connection never polled (parked %d): it was not hot", busy.RecvParked())
	}
	if m := median(rtts); m > 2*time.Millisecond {
		t.Errorf("quiet connection's median round trip beside a busy one = %v (max %v), want well under 2ms", m, rtts[len(rtts)-1])
	}
	if m := median(dials); m > 2*time.Millisecond {
		t.Errorf("a stranger's first frame through the busy endpoint's listener took %v in the median (max %v), want under 2ms", m, dials[len(dials)-1])
	}
	t.Logf("quiet rtt median %v max %v; stranger median %v max %v; busy polled %d parked %d", median(rtts), rtts[len(rtts)-1], median(dials), dials[len(dials)-1], busy.RecvPolled(), busy.RecvParked())
}
