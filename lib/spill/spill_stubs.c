/* Positioned I/O for spill files: pread(2)/pwrite(2) at an offset, one
   system call per transfer and no shared file position, so a record
   read, a tail write or a compaction chunk costs no lseek.  A call
   interrupted by a signal is retried; any other failure raises
   Unix.Unix_error.  A short transfer is returned as is: the OCaml side
   (Fw_spill.File) loops, and turns a read of 0 bytes into a fault.

   The runtime lock is kept across the call.  The transfer goes straight
   between the kernel and the OCaml buffer, which may move while the
   lock is released; releasing it would need a bounce buffer and a copy
   per transfer, which is the cost Unix.read pays.  A spill transfer is
   at most a few KiB of a scratch file usually in the page cache, about
   a microsecond, and a pool is single-writer (one per engine domain),
   so no thread of the domain waits for the lock meanwhile. */

#define _FILE_OFFSET_BITS 64
#include <errno.h>
#include <sys/types.h>
#include <unistd.h>
#include <caml/mlvalues.h>
#include <caml/unixsupport.h>

value fw_spill_pread(value fd, value off, value buf, value pos, value len)
{
  ssize_t n;
  do
    n = pread(Int_val(fd), Bytes_val(buf) + Long_val(pos), Long_val(len),
              (off_t)Long_val(off));
  while (n < 0 && errno == EINTR);
  if (n < 0) caml_uerror("pread", Nothing);
  return Val_long(n);
}

value fw_spill_pwrite(value fd, value off, value buf, value pos, value len)
{
  ssize_t n;
  do
    n = pwrite(Int_val(fd), Bytes_val(buf) + Long_val(pos), Long_val(len),
               (off_t)Long_val(off));
  while (n < 0 && errno == EINTR);
  if (n < 0) caml_uerror("pwrite", Nothing);
  return Val_long(n);
}
