// Stub of sprite/internal/trace for the simtaint fixture: the engine models
// (*Log).Append as a trace sink by import path and method name.
package trace

import "time"

type Log struct{}

func (l *Log) Append(at time.Duration, kind, detail string) {}
