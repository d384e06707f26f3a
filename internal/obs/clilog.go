package obs

import (
	"fmt"
	"io"
	"os"
	"sync/atomic"
)

// CLI logging. The examples and commands used to mix log.Fatal with raw
// fmt prints to stdout and stderr; every status/diagnostic line now
// goes through one helper so the -q (quiet) flag works uniformly and
// primary program output (tables, transformed source) stays clean on
// stdout.
//
// Each line is a bare "slms: [error: |warning: ]msg" without a
// timestamp, written with one Write: CLI status output must be
// deterministic and diff-able.

var (
	logQuiet atomic.Bool
	logOut   atomic.Pointer[io.Writer]
)

func init() { SetLogOutput(os.Stderr) }

// SetQuiet suppresses Logf (info-level) output; warnings and errors are
// always printed. CLIs wire this to a -q flag.
func SetQuiet(on bool) { logQuiet.Store(on) }

// Quiet reports whether info-level CLI logging is suppressed.
func Quiet() bool { return logQuiet.Load() }

// SetLogOutput redirects the CLI logger (tests capture output).
func SetLogOutput(w io.Writer) { logOut.Store(&w) }

// logLine writes one "slms: <level>msg" line.
func logLine(level, format string, args []any) {
	b := append([]byte("slms: "), level...)
	b = fmt.Appendf(b, format, args...)
	(*logOut.Load()).Write(append(b, '\n'))
}

// Logf prints an info-level status line unless quiet is set.
func Logf(format string, args ...any) {
	if !logQuiet.Load() {
		logLine("", format, args)
	}
}

// Warnf prints a warning (not suppressed by quiet).
func Warnf(format string, args ...any) { logLine("warning: ", format, args) }

// Errorf prints an error (not suppressed by quiet).
func Errorf(format string, args ...any) { logLine("error: ", format, args) }

// Fatalf prints an error and exits with status 1.
func Fatalf(format string, args ...any) {
	Errorf(format, args...)
	osExit(1)
}

// Usagef prints an error and exits with status 2, the conventional
// flag-misuse status (matching what flag.Parse itself does on an
// unknown flag). CLIs use it for bad flag *values* — an unknown machine
// name, a bogus format — so "you called me wrong" (2) stays
// distinguishable from "the work failed" (1) in scripts.
func Usagef(format string, args ...any) {
	Errorf(format, args...)
	osExit(2)
}

// osExit is swapped out by tests.
var osExit = os.Exit
