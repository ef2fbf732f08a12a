package main

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"
)

// clockTick is the kernel's USER_HZ, the unit of utime and stime in
// /proc/<pid>/stat. It is 100 on every Linux ABI Go supports.
const clockTick = 10 * time.Millisecond

// parseProcStatCPU returns utime+stime from the contents of a
// /proc/<pid>/stat file: the CPU the whole process (every thread) has
// used. The command name in field 2 is parenthesised and may itself hold
// spaces or parentheses, so fields are counted from the last ')'.
func parseProcStatCPU(stat string) (time.Duration, error) {
	end := strings.LastIndexByte(stat, ')')
	if end < 0 {
		return 0, fmt.Errorf("proc stat: no command field in %q", stat)
	}
	// After ") " come field 3 (state) onwards; utime and stime are fields
	// 14 and 15, i.e. indexes 11 and 12 here.
	f := strings.Fields(stat[end+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("proc stat: %d fields after the command, want at least 13", len(f))
	}
	var ticks uint64
	for _, s := range f[11:13] {
		v, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			return 0, fmt.Errorf("proc stat: cpu field %q: %w", s, err)
		}
		ticks += v
	}
	return time.Duration(ticks) * clockTick, nil
}

// processCPU reads the CPU time pid has used so far.
func processCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	return parseProcStatCPU(string(b))
}
