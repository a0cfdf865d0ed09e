// Stub of sprite/internal/sim for the deadcode fixture: only the spawn
// points' receiver type names and signatures must agree with the real
// package.
package sim

type Simulation struct{}

type Env struct{}

func (s *Simulation) Spawn(name string, fn func(env *Env) error) *Env { return nil }

func (e *Env) Spawn(name string, fn func(env *Env) error) *Env { return nil }
