package main

import (
	"os"
	"strconv"
	"strings"
)

// liveChildren counts this process's child processes still alive (or
// unreaped), from /proc. It reports 0 where /proc is absent.
func liveChildren() int {
	ents, err := os.ReadDir("/proc")
	if err != nil {
		return 0
	}
	self := os.Getpid()
	n := 0
	for _, ent := range ents {
		pid, err := strconv.Atoi(ent.Name())
		if err != nil {
			continue
		}
		b, err := os.ReadFile("/proc/" + ent.Name() + "/stat")
		if err != nil {
			continue
		}
		// The command name may hold spaces; fields resume after its
		// closing parenthesis: state, ppid, ...
		s := string(b)
		f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
		if len(f) > 1 && f[1] == strconv.Itoa(self) && pid != self {
			n++
		}
	}
	return n
}
