package vm

import "repro/internal/lang/bytecode"

// Translate verifies and translates mod without running it.
func Translate(mod *bytecode.Module) error {
	_, err := translateModule(mod)
	return err
}
