package main

import (
	"os"
	"strconv"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// rotatePeriod is how long the process stays on one CPU before
// rotateCPUs moves it to the next.
const rotatePeriod = 20 * time.Millisecond

// cpuMask is a sched_setaffinity(2) CPU set.
type cpuMask [16]uint64

func (m *cpuMask) set(cpu int)      { m[cpu/64] |= 1 << (cpu % 64) }
func (m *cpuMask) has(cpu int) bool { return m[cpu/64]&(1<<(cpu%64)) != 0 }

func schedAffinity(trap uintptr, tid int, m *cpuMask) error {
	if _, _, e := syscall.RawSyscall(trap, uintptr(tid), unsafe.Sizeof(*m), uintptr(unsafe.Pointer(m))); e != 0 {
		return e
	}
	return nil
}

// setProcessAffinity applies m to every thread of the process. Threads
// created later inherit the mask of the thread that creates them.
func setProcessAffinity(m *cpuMask) {
	tasks, err := os.ReadDir("/proc/self/task")
	if err != nil {
		return
	}
	for _, t := range tasks {
		if tid, err := strconv.Atoi(t.Name()); err == nil {
			// A thread that exited since the listing cannot be moved;
			// that is not an error.
			_ = schedAffinity(syscall.SYS_SCHED_SETAFFINITY, tid, m)
		}
	}
}

// rotateCPUs moves the whole process from one allowed CPU to the next
// every rotatePeriod until the returned stop is called, which restores
// the process's original CPU set.
//
// The benchmark runs on one P (see procs), so one vCPU at a time does
// its work, and on a shared host each vCPU's speed follows what runs
// beside it on the host. Campaigns with the process pinned to one vCPU
// ran at two speeds about 1.45 times apart, switching every second or
// so, and a loop timed on one vCPU and then the other ran up to 30%
// faster on either one in turn. Left alone, the busy thread stays on
// one vCPU for seconds, a run's latencies fall into the two levels, and
// the median follows whichever level held more of the run. Moving every
// few milliseconds spreads each campaign over all the vCPUs the process
// may use (README.md, "Why the process moves between CPUs").
func rotateCPUs() (stop func()) {
	var orig cpuMask
	if err := schedAffinity(syscall.SYS_SCHED_GETAFFINITY, 0, &orig); err != nil {
		return func() {}
	}
	var cpus []int
	for cpu := 0; cpu < len(orig)*64; cpu++ {
		if orig.has(cpu) {
			cpus = append(cpus, cpu)
		}
	}
	if len(cpus) < 2 {
		return func() {}
	}
	// Each move re-arms the timer that makes the next one; the lock
	// keeps a move from running after stop.
	var (
		mu      sync.Mutex
		stopped bool
		k       int
		timer   *time.Timer
	)
	move := func() {
		mu.Lock()
		defer mu.Unlock()
		if stopped {
			return
		}
		var m cpuMask
		m.set(cpus[k%len(cpus)])
		k++
		setProcessAffinity(&m)
		timer.Reset(rotatePeriod)
	}
	mu.Lock()
	timer = time.AfterFunc(rotatePeriod, move)
	mu.Unlock()
	return func() {
		mu.Lock()
		defer mu.Unlock()
		stopped = true
		timer.Stop()
		setProcessAffinity(&orig)
	}
}
