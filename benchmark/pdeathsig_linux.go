package main

import (
	"os/exec"
	"syscall"
)

// setParentDeathSignal has the kernel kill the child if the benchmark
// dies without running its cleanup (a SIGKILL from a supervisor's
// timeout), so no daemon outlives the run that started it.
func setParentDeathSignal(cmd *exec.Cmd) {
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}
