// Stub of sprite/internal/sim for the simtaint fixture: only the receiver
// type names and method signatures the engine matches against must agree
// with the real package.
package sim

import (
	"math/rand"
	"time"
)

type Simulation struct{}

type Env struct{}

func (s *Simulation) Spawn(name string, fn func(env *Env) error) *Env { return nil }
func (s *Simulation) Rand() *rand.Rand                                { return nil }
func (s *Simulation) After(d time.Duration, fn func())                {}
func (s *Simulation) Stop()                                           {}

func (e *Env) Spawn(name string, fn func(env *Env) error) *Env { return nil }

func (e *Env) Rand() *rand.Rand            { return nil }
func (e *Env) Now() time.Duration          { return 0 }
func (e *Env) Sleep(d time.Duration) error { return nil }
