package pager

import (
	"bytes"
	"sync"
	"testing"
)

// filled returns a page-sized buffer of pf holding b in every byte.
func filled(pf *PageFile, b byte) []byte {
	return bytes.Repeat([]byte{b}, pf.PageSize())
}

// TestPutSwapsFrameWithoutPin: into a frame no reader holds, Put installs
// the caller's buffer itself as the frame and hands back the frame's old
// buffer — for a resident page and for one Put brings into the pool — and
// the page file receives the installed bytes at Flush.
func TestPutSwapsFrameWithoutPin(t *testing.T) {
	pf := newFile(t, 128)
	pool := NewPool(pf, 8)
	id, frame, err := pool.Allocate(PageStoreData)
	if err != nil {
		t.Fatal(err)
	}
	pool.Unpin(id)
	img := filled(pf, 2)
	old, err := pool.Put(id, img, PageStoreData)
	if err != nil {
		t.Fatal(err)
	}
	if &old[0] != &frame[0] {
		t.Fatal("Put did not hand back the frame's old buffer")
	}
	got, err := pool.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	if &got[0] != &img[0] {
		t.Fatal("the frame is not the buffer Put was given")
	}
	pool.Unpin(id)

	// A page the pool does not hold: Put takes a frame for it.
	cold, err := pf.Allocate(PageStoreData)
	if err != nil {
		t.Fatal(err)
	}
	img2 := filled(pf, 3)
	back, err := pool.Put(cold, img2, PageStoreData)
	if err != nil {
		t.Fatal(err)
	}
	if &back[0] == &img2[0] || len(back) != pf.PageSize() {
		t.Fatalf("Put of a cold page handed back the caller's buffer or %d bytes", len(back))
	}
	if got, err = pool.Get(cold); err != nil || &got[0] != &img2[0] {
		t.Fatalf("cold page's frame is not the buffer Put was given (err %v)", err)
	}
	pool.Unpin(cold)

	if err := pool.Flush(); err != nil {
		t.Fatal(err)
	}
	disk := make([]byte, pf.PageSize())
	for _, c := range []struct {
		id   PageID
		want []byte
	}{{id, filled(pf, 2)}, {cold, filled(pf, 3)}} {
		if _, err := pf.ReadPage(c.id, disk); err != nil || !bytes.Equal(disk, c.want) {
			t.Fatalf("page %d on disk after Flush: err %v, first byte %d", c.id, err, disk[0])
		}
	}
	if n := pool.FrameCopies(); n != 0 {
		t.Fatalf("%d frame copies, want 0: no reader held a page", n)
	}
	if _, err := pool.Put(id, make([]byte, pf.PageSize()-1), PageStoreData); err == nil {
		t.Fatal("Put of a short buffer accepted")
	}
}

// TestPutCopiesIntoPinnedFrame: into a frame a reader holds pinned, Put
// installs a copy and hands the caller's buffer back, and the reader's
// bytes do not change until it unpins — a reader goroutine reads them
// while Puts run, which -race checks. A later getter sees the new image;
// once the pin is gone Put swaps again.
func TestPutCopiesIntoPinnedFrame(t *testing.T) {
	pf := newFile(t, 128)
	pool := NewPool(pf, 8)
	id, frame, err := pool.Allocate(PageStoreData)
	if err != nil {
		t.Fatal(err)
	}
	copy(frame, filled(pf, 1))
	pool.Unpin(id)

	held, err := pool.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	changed := false
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if !bytes.Equal(held, filled(pf, 1)) {
				changed = true
			}
		}
	}()
	var imgs [][]byte
	for i := range 20 {
		img := filled(pf, byte(10+i))
		back, err := pool.Put(id, img, PageStoreData)
		if err != nil {
			t.Fatal(err)
		}
		if &back[0] != &img[0] {
			t.Fatal("Put into a pinned frame kept the caller's buffer")
		}
		imgs = append(imgs, img)
	}
	close(stop)
	wg.Wait()
	if changed || !bytes.Equal(held, filled(pf, 1)) {
		t.Fatal("a pinned reader's bytes changed under Put")
	}
	if n := pool.FrameCopies(); n != 20 {
		t.Fatalf("%d frame copies, want 20", n)
	}
	for _, img := range imgs {
		clear(img) // the caller's again: the frame must not see this
	}
	got, err := pool.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, filled(pf, 29)) || &got[0] == &held[0] {
		t.Fatalf("a getter after the Puts reads %d, want the last image (29) in a frame of its own", got[0])
	}
	pool.Unpin(id)
	pool.Unpin(id)

	img := filled(pf, 5)
	back, err := pool.Put(id, img, PageStoreData)
	if err != nil {
		t.Fatal(err)
	}
	if &back[0] != &got[0] {
		t.Fatal("Put into the unpinned frame did not hand back its buffer")
	}
	if n := pool.FrameCopies(); n != 20 {
		t.Fatalf("%d frame copies after an unpinned Put, want 20", n)
	}
}

// TestPutRacingPinnedReaders: readers pin, check and unpin one page while a
// writer Puts it over and over, refilling whatever buffer each Put hands
// back for its next image — the commit path's reuse. A reader's pinned
// bytes must stay one whole image until it unpins: a swapped-out buffer a
// reader still held would be refilled under it (and -race reports the
// writes).
func TestPutRacingPinnedReaders(t *testing.T) {
	pf := newFile(t, 128)
	pool := NewPool(pf, 8)
	id, _, err := pool.Allocate(PageStoreData)
	if err != nil {
		t.Fatal(err)
	}
	pool.Unpin(id)
	stop := make(chan struct{})
	errs := make(chan string, 4)
	var wg sync.WaitGroup
	for range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				buf, err := pool.Get(id)
				if err != nil {
					errs <- err.Error()
					return
				}
				for range 3 {
					if !bytes.Equal(buf, bytes.Repeat(buf[:1], len(buf))) {
						errs <- "a pinned reader saw its page change"
						pool.Unpin(id)
						return
					}
				}
				pool.Unpin(id)
			}
		}()
	}
	img := make([]byte, pf.PageSize())
	for i := range 3000 {
		for j := range img {
			img[j] = byte(i)
		}
		if img, err = pool.Put(id, img, PageStoreData); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
	t.Logf("%d of 3000 Puts found the page pinned and copied", pool.FrameCopies())
}
