package main

import (
	"bytes"
	"fmt"
	"os/exec"
	"regexp"
	"sync"
	"syscall"
	"time"
)

const (
	readyTimeout = 10 * time.Second // a child that has not announced its address by then failed to start
	stopTimeout  = 5 * time.Second  // grace between SIGINT and killing the process group
)

// Address announcements of the servers under test. Each pattern ends in
// the delimiter that follows the address, so a line cut across two
// writes never yields a truncated address.
var (
	serveAnnounce  = regexp.MustCompile(`on http://([^/\s]+)/ \(`)
	workerAnnounce = regexp.MustCompile(`accepting shards on ([^,\s]+),`)
)

// usage is what one exited child cost.
type usage struct {
	wall  time.Duration
	cpuS  float64 // user+sys seconds from exit rusage
	rssMB float64 // peak resident set
}

// procSet tracks every child the bench starts. Each child leads its own
// process group, so killAll reaches anything a child forked too.
type procSet struct {
	mu   sync.Mutex
	live map[int]*child
	pids []int // every pid ever started, for the end-of-run survivor check
}

func newProcSet() *procSet { return &procSet{live: map[int]*child{}} }

// child is one started process.
type child struct {
	cmd     *exec.Cmd
	addr    string // announced listen address (servers only)
	started time.Time
	ended   time.Time // set when Wait returns
	out     *outputWatcher
	done    chan struct{} // closed once Wait has returned
	waitErr error
}

// outputWatcher keeps the tail of a child's output for error reports and
// hands the first announced address to whoever waits for it.
type outputWatcher struct {
	mu       sync.Mutex
	announce *regexp.Regexp
	buf      []byte
	found    chan string
}

const outputTail = 4 << 10

func (w *outputWatcher) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.buf = append(w.buf, p...)
	if w.announce != nil {
		if m := w.announce.FindSubmatch(w.buf); m != nil {
			w.found <- string(m[1]) // buffered: never blocks
			w.announce = nil
		}
	}
	if w.announce == nil && len(w.buf) > outputTail {
		w.buf = append(w.buf[:0], w.buf[len(w.buf)-outputTail:]...)
	}
	return len(p), nil
}

func (w *outputWatcher) tail() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return string(bytes.TrimSpace(w.buf))
}

// start launches bin in its own process group. announce, when non-nil,
// is the pattern whose first submatch is the child's listen address.
func (ps *procSet) start(announce *regexp.Regexp, bin string, args ...string) (*child, error) {
	c := &child{
		cmd:  exec.Command(bin, args...),
		out:  &outputWatcher{announce: announce, found: make(chan string, 1)},
		done: make(chan struct{}),
	}
	c.cmd.Stdout, c.cmd.Stderr = c.out, c.out
	c.cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	// The lock spans Start so killAll cannot miss a child that is being
	// born while a signal arrives.
	ps.mu.Lock()
	c.started = time.Now()
	if err := c.cmd.Start(); err != nil {
		ps.mu.Unlock()
		return nil, err
	}
	pid := c.cmd.Process.Pid
	ps.live[pid] = c
	ps.pids = append(ps.pids, pid)
	ps.mu.Unlock()
	go func() {
		c.waitErr = c.cmd.Wait()
		c.ended = time.Now()
		ps.mu.Lock()
		delete(ps.live, pid)
		ps.mu.Unlock()
		close(c.done)
	}()
	return c, nil
}

// run executes bin to completion and reports what it cost; a non-zero
// exit is an error carrying the tail of the child's output.
func (ps *procSet) run(bin string, args ...string) (usage, string, error) {
	c, err := ps.start(nil, bin, args...)
	if err != nil {
		return usage{}, "", err
	}
	<-c.done
	u := c.usage()
	if c.waitErr != nil {
		return u, c.out.tail(), fmt.Errorf("%s: %w: %s", bin, c.waitErr, c.out.tail())
	}
	return u, c.out.tail(), nil
}

// startServer launches a server and waits for it to announce its address.
// A child that exits or stays silent for readyTimeout is a failed start,
// reported as an error — never a hang.
func (ps *procSet) startServer(announce *regexp.Regexp, bin string, args ...string) (*child, error) {
	c, err := ps.start(announce, bin, args...)
	if err != nil {
		return nil, err
	}
	select {
	case c.addr = <-c.out.found:
		return c, nil
	case <-c.done:
		return nil, fmt.Errorf("%s exited before announcing its address: %v: %s", bin, c.waitErr, c.out.tail())
	case <-time.After(readyTimeout):
		c.kill()
		<-c.done
		return nil, fmt.Errorf("%s did not announce its address within %v: %s", bin, readyTimeout, c.out.tail())
	}
}

func (c *child) interrupt() { _ = c.cmd.Process.Signal(syscall.SIGINT) }

func (c *child) kill() { _ = syscall.Kill(-c.cmd.Process.Pid, syscall.SIGKILL) }

// stop asks the server to shut down (SIGINT, which both cinemaserve and
// vizworker handle), escalates to killing its group after stopTimeout,
// and returns its exit rusage.
func (c *child) stop() usage {
	c.interrupt()
	select {
	case <-c.done:
	case <-time.After(stopTimeout):
		c.kill()
		<-c.done
	}
	return c.usage()
}

func (c *child) usage() usage {
	u := usage{wall: c.ended.Sub(c.started)}
	if st := c.cmd.ProcessState; st != nil {
		u.cpuS = (st.UserTime() + st.SystemTime()).Seconds()
		if ru, ok := st.SysUsage().(*syscall.Rusage); ok {
			u.rssMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
		}
	}
	return u
}

// killAll kills every live child's process group and waits for each.
func (ps *procSet) killAll() {
	ps.mu.Lock()
	var cs []*child
	for _, c := range ps.live {
		c.kill()
		cs = append(cs, c)
	}
	ps.mu.Unlock()
	for _, c := range cs {
		<-c.done
	}
}

// survivors lists the process groups of started children that still have
// a member — what a clean run must leave empty.
func (ps *procSet) survivors() []int {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	var alive []int
	for _, pid := range ps.pids {
		if syscall.Kill(-pid, 0) == nil {
			alive = append(alive, pid)
		}
	}
	return alive
}
