package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/naming"
	"repro/internal/netsim"
	"repro/internal/rpc"
	"repro/internal/wire"
)

// repoRoot finds the module the benchmark measures: the benchmark runs
// either from its own directory (go run -C benchmark .) or from the
// root, and in both cases proxyd's source must be there to build.
func repoRoot() (string, error) {
	for _, dir := range []string{".", ".."} {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "proxyd", "main.go")); err == nil {
			return filepath.Abs(dir)
		}
	}
	return "", errors.New("cmd/proxyd not found in . or ..: run from the repository root or from benchmark/")
}

// buildProxyd compiles cmd/proxyd from the checkout's source into the
// benchmark's own build directory and reports where it is and how long
// the build took (near zero when the binary is up to date).
func buildProxyd(root string) (bin string, took time.Duration, err error) {
	bin = filepath.Join(root, "benchmark", ".build", "proxyd")
	start := time.Now()
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/proxyd")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", 0, fmt.Errorf("build proxyd: %w\n%s", err, out)
	}
	return bin, time.Since(start), nil
}

// daemons tracks every proxyd this process started, so that an error
// path or a signal can kill them all: a benchmark that dies must not
// leave servers behind.
var daemons struct {
	mu   sync.Mutex
	live map[*daemon]bool
}

// killDaemonsOnSignal makes SIGINT/SIGTERM stop every live proxyd
// before the process exits.
func killDaemonsOnSignal() {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sig
		killAllDaemons()
		os.Exit(130)
	}()
}

func killAllDaemons() {
	daemons.mu.Lock()
	live := make([]*daemon, 0, len(daemons.live))
	for d := range daemons.live {
		live = append(live, d)
	}
	daemons.mu.Unlock()
	for _, d := range live {
		d.stop()
	}
}

// machine is where and what the benchmark runs: the proxyd binary it
// built and how it divided the CPUs.
type machine struct {
	proxyd string
	cpus   *placement
}

// daemon is one running proxyd process.
type daemon struct {
	cmd      *exec.Cmd
	addr     string // TCP listen address, parsed from the log
	httpAddr string // /metrics address; empty unless asked for
	logTail  *bytes.Buffer
	exited   chan struct{}
}

var listenLine = regexp.MustCompile(`listening on (\S+);`)

// readyLine is the last thing proxyd -with-kv logs before it serves:
// the listen line comes first, while the services are still being bound.
const readyLine = "bound at services/kv"

// startDaemon execs proxyd on an ephemeral loopback port with the
// workload's flags and returns once its "listening on" log line has
// named the port and the KV is bound. withHTTP adds the /metrics
// endpoint for the counter scrape.
func startDaemon(m *machine, flags []string, withHTTP bool) (*daemon, error) {
	args := append([]string{"-node", "1", "-listen", "127.0.0.1:0", "-with-kv", "-health-interval", "0"}, flags...)
	d := &daemon{logTail: new(bytes.Buffer), exited: make(chan struct{})}
	if withHTTP {
		// proxyd logs the -http flag, not the bound port, so the port is
		// picked here: reserve one, release it, hand it over.
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		d.httpAddr = ln.Addr().String()
		ln.Close()
		args = append(args, "-http", d.httpAddr)
	}
	d.cmd = exec.Command(m.proxyd, args...)
	// The daemon must not outlive this process even if it is killed
	// without a chance to clean up.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := d.cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := startOn(d.cmd, m.cpus.daemon); err != nil {
		return nil, fmt.Errorf("start proxyd: %w", err)
	}
	daemons.mu.Lock()
	if daemons.live == nil {
		daemons.live = make(map[*daemon]bool)
	}
	daemons.live[d] = true
	daemons.mu.Unlock()

	found := make(chan string, 1)
	go func() {
		defer close(d.exited)
		sc := bufio.NewScanner(stderr)
		var addr string
		for sc.Scan() {
			line := sc.Text()
			if m := listenLine.FindStringSubmatch(line); m != nil {
				addr = m[1]
			}
			if addr != "" && strings.Contains(line, readyLine) {
				select {
				case found <- addr:
				default:
				}
			}
			if d.logTail.Len() < 8<<10 {
				d.logTail.WriteString(line + "\n")
			}
		}
		_ = d.cmd.Wait()
	}()
	select {
	case d.addr = <-found:
		return d, nil
	case <-d.exited:
		d.stop()
		return nil, fmt.Errorf("proxyd exited before listening:\n%s", d.logTail)
	case <-time.After(10 * time.Second):
		d.stop()
		return nil, errors.New("proxyd did not report a listen address and a bound KV within 10s")
	}
}

// stop kills the daemon and waits until it has ended. Safe to call twice.
func (d *daemon) stop() {
	daemons.mu.Lock()
	was := daemons.live[d]
	delete(daemons.live, d)
	daemons.mu.Unlock()
	if !was {
		return
	}
	_ = d.cmd.Process.Kill()
	<-d.exited
}

// rssMiB reads the daemon's peak resident set (VmHWM) from /proc.
func (d *daemon) rssMiB() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", line, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("VmHWM not found in /proc status")
}

// cpuSeconds reads the daemon's user+system CPU time from /proc.
func (d *daemon) cpuSeconds() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) is parenthesised and may hold spaces;
	// fields are counted from the closing parenthesis.
	i := bytes.LastIndexByte(data, ')')
	fields := strings.Fields(string(data[i+1:]))
	if i < 0 || len(fields) < 13 {
		return 0, errors.New("short /proc stat line")
	}
	utime, err1 := strconv.ParseFloat(fields[11], 64)
	stime, err2 := strconv.ParseFloat(fields[12], 64)
	if err1 != nil || err2 != nil {
		return 0, errors.New("unparsable /proc stat times")
	}
	const clockTick = 100 // USER_HZ on every Linux the Go toolchain supports
	return (utime + stime) / clockTick, nil
}

// scrapeMetrics fetches and parses the daemon's /metrics dump.
func (d *daemon) scrapeMetrics() (map[string]float64, error) {
	if d.httpAddr == "" {
		return nil, errors.New("daemon was started without -http")
	}
	var lastErr error
	// The HTTP listener comes up on its own goroutine after the TCP
	// listen line, so the first scrape may race it.
	for attempt := 0; attempt < 20; attempt++ {
		resp, err := http.Get("http://" + d.httpAddr + "/metrics")
		if err != nil {
			lastErr = err
			time.Sleep(25 * time.Millisecond)
			continue
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return nil, err
		}
		return parseMetrics(bytes.NewReader(body)), nil
	}
	return nil, fmt.Errorf("scrape /metrics: %w", lastErr)
}

// clientStack is the load generator's half of the system, assembled the
// way cmd/proxyctl assembles it: TCP endpoint → train coalescer → kernel
// node → runtime → directory import → name resolution → proxy.
type clientStack struct {
	co   *wire.Coalescer
	node *kernel.Node
	rt   *core.Runtime
	kv   core.Proxy
}

// clientNode is the node id the generator takes, as proxyctl does.
const clientNode = 99

// dial connects a client stack to the server at addr and resolves
// services/kv. sessions selects core.WithSessions (guarded-write).
// inproc says the server shares this process; wrap, when not nil, is put
// between the coalescer and the kernel: the traced run's tap.
func dial(ctx context.Context, addr string, sessions, inproc bool, wrap func(netsim.Endpoint) netsim.Endpoint) (*clientStack, error) {
	ep, err := netsim.ListenTCP(clientNode, "127.0.0.1:0", map[wire.NodeID]string{1: addr})
	if err != nil {
		return nil, err
	}
	ce := netsim.Coalesce(ep, wire.CoalescerConfig{})
	var kernelEP netsim.Endpoint = ce
	if wrap != nil {
		kernelEP = wrap(ce)
	}
	cs := &clientStack{co: ce.Coalescer(), node: kernel.NewNode(kernelEP)}
	ktx, err := cs.node.NewContext()
	if err != nil {
		cs.close()
		return nil, err
	}
	var opts []core.RuntimeOption
	if sessions {
		opts = append(opts, core.WithSessions())
	}
	if inproc {
		opts = append(opts, patientClient(ktx))
	}
	cs.rt = core.NewRuntime(ktx, opts...)
	// Reads are declared replay-safe, as a deployment would declare
	// them: with sessions on, only the writes are stamped.
	cs.rt.RegisterIdempotent("KV", "get", "sum", "noop")
	dirProxy, err := cs.rt.Import(codec.Ref{
		Target: wire.ObjAddr{Addr: wire.Addr{Node: 1, Context: 1}, Object: naming.WellKnownObject},
		Type:   naming.TypeName,
	})
	if err != nil {
		cs.close()
		return nil, fmt.Errorf("import directory: %w", err)
	}
	cs.kv, err = naming.NewClient(dirProxy).Resolve(ctx, cs.rt, "services/kv")
	if err != nil {
		cs.close()
		return nil, fmt.Errorf("resolve services/kv: %w", err)
	}
	return cs, nil
}

func (cs *clientStack) close() { _ = cs.node.Close() }

// patientClient is the rpc client of a runtime whose server shares this
// process. The default retry policy draws its first wait from (0, 50 ms],
// so one call in five hundred is retransmitted although its reply is on
// the way. The server's reply cache answers the duplicate — unless the
// duplicate's handler goroutine is scheduled after 128 newer requests,
// when it runs again and a stale put overwrites a newer one. With both
// halves and eight callers on one Go scheduler that happened in a quarter
// of three-second stretches (never between two processes). A workload
// must not fail, so an in-process client waits the full 50 ms before it
// retransmits, which a healthy run never reaches.
func patientClient(ktx *kernel.Context) core.RuntimeOption {
	return core.WithClient(rpc.NewClient(ktx, rpc.WithRetryInterval(50*time.Millisecond)))
}
