// Package a exercises the lockorder rules: blocking while a mutex is
// held and lock-order inversions, including the Blocks/Locks facts
// imported from package lockdep.
package a

import (
	"sync"
	"time"

	"lockdep"
)

type cache struct {
	mu    sync.Mutex
	items map[string]int
}

func (c *cache) reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.items = map[string]int{}
}

func blockUnderLock(c *cache, ch chan int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.items["x"] = <-ch // want `channel receive while a.cache.mu is held`
}

func sleepUnderLock(c *cache) {
	c.mu.Lock()
	time.Sleep(time.Millisecond) // want `time.Sleep while a.cache.mu is held`
	c.mu.Unlock()
}

func unlockThenBlock(c *cache, ch chan int) {
	c.mu.Lock()
	c.items["y"] = 1
	c.mu.Unlock()
	<-ch
}

func depBlockUnderLock(c *cache, ch chan int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.items["z"] = lockdep.Fill(ch) // want `call to Fill, which blocks, while a.cache.mu is held`
}

func waitForever(ch chan int) int {
	return lockdep.Fill(ch)
}

func indirectBlockUnderLock(c *cache, ch chan int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.items["w"] = waitForever(ch) // want `call to waitForever, which blocks, while a.cache.mu is held`
}

func depLockUnderLock(c *cache, p *lockdep.Pool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.items["v"] = p.Get()
}

func spawnUnderLockIsFine(c *cache, ch chan int) {
	var wg sync.WaitGroup
	c.mu.Lock()
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-ch
	}()
	c.mu.Unlock()
	wg.Wait()
}

type left struct {
	mu sync.Mutex
}

type right struct {
	mu sync.Mutex
}

func lockBoth(l *left, r *right) {
	l.mu.Lock()
	r.mu.Lock() // want `lock order inversion: a.left.mu and a.right.mu are acquired in both orders`
	r.mu.Unlock()
	l.mu.Unlock()
}

func lockBothReversed(l *left, r *right) {
	r.mu.Lock()
	l.mu.Lock()
	l.mu.Unlock()
	r.mu.Unlock()
}
