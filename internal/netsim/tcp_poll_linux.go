//go:build linux

package netsim

import (
	"io"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"
)

// watched is one descriptor of this package that may be waiting in the Go
// netpoller. A reader that polls spins through Gosched and so is always
// runnable: the scheduler then looks at the netpoller only every 10 ms,
// and a sleeper's byte waits that long. So a polling reader probes the
// sleepers' descriptors with its own and parks when one turns readable.
type watched struct {
	owner  any // the net.Conn or net.Listener: unwatch's key
	fd     int32
	parked *atomic.Bool // nil for a listener, which is always waiting
}

// watchList is process-wide, as the netpoller is; writers copy it.
var (
	watchMu   sync.Mutex
	watchList atomic.Pointer[[]watched]
)

func init() { watchList.Store(new([]watched)) }

// watch adds owner's descriptor to the watch list and returns its RawConn,
// or nil when owner has no descriptor to show.
func watch(owner any, parked *atomic.Bool) (rc syscall.RawConn) {
	if sc, ok := owner.(syscall.Conn); ok {
		rc, _ = sc.SyscallConn()
	}
	if rc == nil || rc.Control(func(fd uintptr) { setWatched(owner, &watched{owner, int32(fd), parked}) }) != nil {
		return nil
	}
	return rc
}

// unwatch must run before owner is closed: a probe may hold a stale list
// for a moment (a closed descriptor reads as somebody's, and the prober
// parks once), but the list must never name a number the kernel reused.
func unwatch(owner any) { setWatched(owner, nil) }

// setWatched replaces the list by a copy without owner's entry, with add.
func setWatched(owner any, add *watched) {
	watchMu.Lock()
	defer watchMu.Unlock()
	var list []watched
	for _, w := range *watchList.Load() {
		if w.owner != owner {
			list = append(list, w)
		}
	}
	if add != nil {
		list = append(list, *add)
	}
	watchList.Store(&list)
}

// pollReader reads one connection's socket and polls before it parks
// (see pollBound): while the connection is hot — its previous wait was
// shorter than bound and no bigFrame has just moved — an empty socket is
// probed, with a yield before every probe so callers, workers and flushers
// run first, for at most bound before the reader sleeps in the netpoller
// as net.Conn.Read would. Closing the connection waits for a probe in
// progress to give up: one bound at most.
type pollReader struct {
	e      *TCPEndpoint
	rc     syscall.RawConn
	try    func(fd uintptr) bool // r.attempt, built once: a method value per Read allocates
	bound  time.Duration         // pollBound; a field so that tests can stretch it
	asleep atomic.Bool           // parked in the netpoller: what the watch list shows of r
	fds    []pollFd              // the probe's argument, kept between probes
	// One Read's arguments and results, here so that try captures nothing.
	p            []byte
	n            int
	err          error
	start, wait  time.Duration // when this Read began, since processStart; how long the previous one took
	spun, parked bool
}

type pollFd struct {
	fd              int32
	events, revents int16
}

// reader returns what readLoop reads conn through, and puts conn on the
// watch list: unwatch it before closing it.
func (e *TCPEndpoint) reader(conn net.Conn) io.Reader {
	r := &pollReader{e: e, bound: pollBound, wait: pollBound} // cold
	if r.rc = watch(conn, &r.asleep); r.rc == nil {
		return conn
	}
	r.try = r.attempt
	return r
}

func (r *pollReader) Read(p []byte) (int, error) {
	r.p, r.spun, r.parked, r.start = p, false, false, time.Since(processStart)
	err := r.rc.Read(r.try)
	r.asleep.Store(false)
	if err != nil {
		return 0, err
	}
	now := time.Since(processStart)
	r.wait = now - r.start
	if r.n >= bigFrame {
		r.e.lastBig.Store(int64(now))
	}
	if r.parked {
		r.e.parked.Add(1)
	} else if r.spun {
		r.e.polled.Add(1)
	}
	if r.n == 0 && r.err == nil && len(p) > 0 {
		return 0, io.EOF
	}
	return max(r.n, 0), r.err // a failed read(2) reports -1
}

// attempt is the RawConn.Read callback: true once r.n and r.err hold a
// read's outcome, false to sleep until the netpoller calls it again.
func (r *pollReader) attempt(fd uintptr) bool {
	if !r.parked && r.wait < r.bound && r.start-time.Duration(r.e.lastBig.Load()) >= r.bound {
		// Hot: the last read drained the socket, so what comes next answers
		// something this process has yet to send. Yield, then probe.
		r.spun = true
		for runtime.Gosched(); !r.readable(fd) && time.Since(processStart)-r.start < r.bound; runtime.Gosched() {
		}
	}
	for r.err = syscall.EINTR; r.err == syscall.EINTR; {
		r.n, r.err = syscall.Read(int(fd), r.p)
	}
	if r.err != syscall.EAGAIN {
		return true
	}
	r.parked = true
	r.asleep.Store(true)
	return false
}

// readable probes fd and every watched descriptor that is asleep with one
// zero-timeout ppoll, which takes no socket lock (read(2) until EAGAIN
// does, and slows the very sender it waits for). True means stop polling
// and read: fd has something, or a sleeper has and the read will find
// EAGAIN and park, or the probe failed (EINTR) and the read decides.
func (r *pollReader) readable(fd uintptr) bool {
	r.fds = append(r.fds[:0], pollFd{fd: int32(fd), events: 1}) // POLLIN
	for _, w := range *watchList.Load() {
		if w.parked == nil || w.parked.Load() {
			r.fds = append(r.fds, pollFd{fd: w.fd, events: 1})
		}
	}
	var now syscall.Timespec
	n, _, _ := syscall.RawSyscall6(syscall.SYS_PPOLL, uintptr(unsafe.Pointer(&r.fds[0])), uintptr(len(r.fds)), uintptr(unsafe.Pointer(&now)), 0, 0, 0)
	return n != 0
}
