// Package fixture violates the goroutine convention: a background
// loop nothing can stop.
package fixture

// Background spins a goroutine with no context, channel, or
// WaitGroup — it can never be stopped or awaited.
func Background() {
	go func() {
		for {
			process(0)
		}
	}()
}

func process(int) {}
