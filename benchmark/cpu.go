package main

import (
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"slices"
	"strconv"
	"syscall"
	"unsafe"
)

// On a small virtual machine two things make a loopback benchmark
// unsteady, and both are the host's doing, not the program's. An idle
// virtual CPU halts, and waking it costs far more than the 40 µs one hop
// of an invocation takes, so latency depends on whether a core happened
// to be asleep. And the kernel moves the generator's and the daemon's
// threads between cores as it likes, so how often a hop crosses cores
// changes from second to second. The benchmark therefore splits the CPUs
// it may use in two, gives the generator one half and each daemon the
// other, and parks a busy loop of the lowest scheduling class
// (SCHED_IDLE) on every CPU: it runs only when nothing else wants the
// core, and keeps the core awake.

// cpuSet is the CPUs of one side, in the order the kernel numbers them.
type cpuSet []int

type cpuMask [16]uint64 // 1024 CPUs, the kernel's default limit

func (s cpuSet) mask() cpuMask {
	var m cpuMask
	for _, c := range s {
		m[c/64] |= 1 << (c % 64)
	}
	return m
}

// allowedCPUs reads the CPUs this process may run on.
func allowedCPUs() (cpuSet, error) {
	var m cpuMask
	if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m))); e != 0 {
		return nil, fmt.Errorf("sched_getaffinity: %w", e)
	}
	var s cpuSet
	for c := 0; c < len(m)*64; c++ {
		if m[c/64]&(1<<(c%64)) != 0 {
			s = append(s, c)
		}
	}
	return s, nil
}

func setAffinity(tid int, s cpuSet) error {
	m := s.mask()
	if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m))); e != 0 {
		return fmt.Errorf("sched_setaffinity(%d): %w", tid, e)
	}
	return nil
}

// placement is how the benchmark has divided the machine.
type placement struct {
	generator, daemon cpuSet
	spinners          []*exec.Cmd
	// note says what was done, for the host block.
	note string
}

// maxSideCPUs caps each side: the generator must not become a many-core
// program on a large host while the workloads stay the same size.
const maxSideCPUs = 4

// place divides the allowed CPUs and starts the spinners. A machine with
// one CPU gives both sides that CPU. Nothing here is needed for the
// benchmark to be correct, only for it to be steady, so a host that
// refuses a step gets a note instead of an error.
func place() *placement {
	p := &placement{}
	cpus, err := allowedCPUs()
	if err != nil || len(cpus) == 0 {
		p.note = fmt.Sprintf("not pinned (%v)", err)
		return p
	}
	half := len(cpus) / 2
	if half == 0 {
		p.generator, p.daemon = cpus, cpus
	} else {
		p.generator, p.daemon = cpus[:min(half, maxSideCPUs)], cpus[half:min(len(cpus), half+maxSideCPUs)]
	}
	p.note = fmt.Sprintf("generator on CPUs %v, daemons on CPUs %v", p.generator, p.daemon)
	held := 0
	for _, c := range p.all() {
		if err := p.spin(c); err != nil {
			p.note += fmt.Sprintf("; no spinner on CPU %d (%v)", c, err)
			continue
		}
		held++
	}
	p.note += fmt.Sprintf("; %d SCHED_IDLE spinners hold the cores awake", held)
	return p
}

// all is both sides' CPUs together: what a run with both halves of the
// system in this process may use.
func (p *placement) all() cpuSet {
	s := append(cpuSet(nil), p.generator...)
	for _, c := range p.daemon {
		if !slices.Contains(s, c) {
			s = append(s, c)
		}
	}
	return s
}

// spin starts a busy loop bound to CPU c in the SCHED_IDLE class.
func (p *placement) spin(c int) error {
	cmd := exec.Command("sh", "-c", "while :; do :; done")
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := startOn(cmd, cpuSet{c}); err != nil {
		return err
	}
	const schedIdle = 5
	var prio int32 // sched_param: priority 0, the only one SCHED_IDLE takes
	if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETSCHEDULER, uintptr(cmd.Process.Pid), schedIdle, uintptr(unsafe.Pointer(&prio))); e != 0 {
		// A spinner of ordinary priority would compete with what is
		// being measured.
		_ = cmd.Process.Kill()
		_ = cmd.Wait()
		return fmt.Errorf("sched_setscheduler: %w", e)
	}
	p.spinners = append(p.spinners, cmd)
	return nil
}

// stop ends the spinners and waits for them.
func (p *placement) stop() {
	for _, cmd := range p.spinners {
		_ = cmd.Process.Kill()
		_ = cmd.Wait()
	}
	p.spinners = nil
}

// startOn starts cmd with its affinity set to cpus from its first
// instruction: a child inherits the mask of the thread that forks it, so
// the fork is made from a thread narrowed to cpus for the occasion. An
// empty set starts cmd wherever this process may run.
func startOn(cmd *exec.Cmd, cpus cpuSet) error {
	if len(cpus) == 0 {
		return cmd.Start()
	}
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	before, err := allowedCPUs()
	if err != nil {
		return cmd.Start()
	}
	if err := setAffinity(0, cpus); err != nil {
		return cmd.Start()
	}
	defer setAffinity(0, before)
	return cmd.Start()
}

// confine moves every thread of this process onto cpus and sizes the Go
// scheduler to match. Threads started later inherit the mask from the
// thread that starts them; the pass is made twice in case a thread was
// being born during the first.
func confine(cpus cpuSet) {
	if len(cpus) == 0 {
		return
	}
	for pass := 0; pass < 2; pass++ {
		tasks, err := os.ReadDir("/proc/self/task")
		if err != nil {
			return
		}
		for _, t := range tasks {
			if tid, err := strconv.Atoi(t.Name()); err == nil {
				_ = setAffinity(tid, cpus)
			}
		}
	}
	runtime.GOMAXPROCS(len(cpus))
}
