package main

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"time"
)

// procCPU returns the user+system CPU time a process has used, from
// /proc/<pid>/stat. Linux reports it in ticks of 1/100 s (USER_HZ),
// which over a window of seconds resolves to well under a percent,
// so the bench reads its own CPU time the same way as tipsyd's.
func procCPU(pid int) (time.Duration, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may hold spaces; fields are counted
	// from the closing parenthesis.
	i := bytes.LastIndexByte(raw, ')')
	fields := bytes.Fields(raw[i+1:])
	if i < 0 || len(fields) < 13 {
		return 0, fmt.Errorf("/proc/%d/stat: unexpected format", pid)
	}
	utime, err1 := strconv.ParseInt(string(fields[11]), 10, 64)
	stime, err2 := strconv.ParseInt(string(fields[12]), 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("/proc/%d/stat: bad utime/stime", pid)
	}
	return time.Duration(utime+stime) * (time.Second / 100), nil
}

// procStatusMB reads one of the memory lines of /proc/<pid>/status,
// in MB: VmRSS is the resident set, VmHWM its high-water mark since
// the process began.
func procStatusMB(pid int, field string) (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range bytes.Split(raw, []byte("\n")) {
		if rest, ok := bytes.CutPrefix(line, []byte(field+":")); ok {
			f := bytes.Fields(rest)
			if len(f) == 0 {
				break
			}
			kb, err := strconv.ParseFloat(string(f[0]), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("/proc/%d/status: no %s", pid, field)
}

// rssSampler averages a process's resident set over a window. The
// mean of many samples repeats within 2 to 4 % from run to run; the
// high-water mark is a maximum, is mostly set during set-up, and
// moved by 15 %.
type rssSampler struct {
	stop chan struct{}
	mean chan float64
}

func sampleRSS(pid int) *rssSampler {
	s := &rssSampler{make(chan struct{}), make(chan float64, 1)}
	go func() {
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		var sum float64
		n := 0
		for {
			select {
			case <-s.stop:
				s.mean <- sum / float64(max(n, 1))
				return
			case <-tick.C:
				if mb, err := procStatusMB(pid, "VmRSS"); err == nil {
					sum += mb
					n++
				}
			}
		}
	}()
	return s
}

// finish stops the sampler and returns the mean resident set in MB.
func (s *rssSampler) finish() float64 {
	close(s.stop)
	return <-s.mean
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// quantile returns the q-quantile of an ascending slice.
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[int(q*float64(len(sorted)-1)+0.5)]
}

// opOutcome is what one operation reports back to the loop.
type opOutcome struct {
	// lat is the timed part of the op; checking the result is not in it.
	lat  time.Duration
	work int
	// err is a failed or wrong result.
	err error
}

// opFunc runs operation number seq of a client. root is the op's
// root span (0 when tracing is off).
type opFunc func(client, seq int, root int) opOutcome

// loopSpec drives a closed loop: every client sends its next
// operation only after the previous one has completed.
type loopSpec struct {
	clients int
	// The loop ends after dur, or after opsPerClient operations when
	// that is set (the smoke test drives by count and reads no clock).
	dur          time.Duration
	opsPerClient int
	limit        time.Duration
	tr           *tracer
}

// loopStats is one window of a closed loop.
type loopStats struct {
	lats      []time.Duration // ascending
	attempted int
	failed    int
	sloOK     int
	work      int
	// rate sums each client's work over its own elapsed time, so an
	// op that straddles the end of the window adds no quantization.
	rate float64
	// wall is until the last client finished; iter sums every whole
	// iteration (timed part plus checking).
	wall, iter time.Duration
	firstErr   error
}

func (s loopSpec) run(op opFunc) loopStats {
	var (
		mu  sync.Mutex
		out loopStats
		wg  sync.WaitGroup
	)
	start := time.Now()
	for c := 0; c < s.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var local loopStats
			for seq := 0; ; seq++ {
				if s.opsPerClient > 0 {
					if seq >= s.opsPerClient {
						break
					}
				} else if time.Since(start) >= s.dur {
					break
				}
				t0 := time.Now()
				root := s.tr.start("op", 0, c)
				o := op(c, seq, root)
				s.tr.end(root)
				local.iter += time.Since(t0)
				local.attempted++
				local.lats = append(local.lats, o.lat)
				switch {
				case o.err != nil:
					local.failed++
					if local.firstErr == nil {
						local.firstErr = fmt.Errorf("client %d op %d: %w", c, seq, o.err)
					}
				case o.lat <= s.limit:
					local.sloOK++
				}
				if o.err == nil {
					local.work += o.work
				}
			}
			elapsed := time.Since(start)
			mu.Lock()
			defer mu.Unlock()
			out.lats = append(out.lats, local.lats...)
			out.attempted += local.attempted
			out.failed += local.failed
			out.sloOK += local.sloOK
			out.work += local.work
			out.iter += local.iter
			out.rate += float64(local.work) / elapsed.Seconds()
			if out.firstErr == nil {
				out.firstErr = local.firstErr
			}
		}(c)
	}
	wg.Wait()
	out.wall = time.Since(start)
	sort.Slice(out.lats, func(i, j int) bool { return out.lats[i] < out.lats[j] })
	return out
}

// runtimeDelta is the bench process's allocator and collector work
// between two readings.
type runtimeDelta struct {
	mallocs, allocBytes, gcCycles uint64
	gcPause                       time.Duration
}

func readRuntime() runtimeDelta {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return runtimeDelta{m.Mallocs, m.TotalAlloc, uint64(m.NumGC), time.Duration(m.PauseTotalNs)}
}

func (a runtimeDelta) since(b runtimeDelta) runtimeDelta {
	return runtimeDelta{a.mallocs - b.mallocs, a.allocBytes - b.allocBytes,
		a.gcCycles - b.gcCycles, a.gcPause - b.gcPause}
}
