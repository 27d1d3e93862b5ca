(* memcheck baseline — a Valgrind-memcheck-like dynamic checker (the
   paper's Table IV "memcheck" variant, built on the pmem Valgrind fork).

   Every access is validated against a side table of live allocations.
   Two properties this reproduces faithfully:

   - cost: the table lookup on every single access is why Valgrind-class
     tools are debugging-only (the paper's motivation for SPP);
   - coverage: an overflow that lands inside *another* live allocation is
     NOT detected (there are no redzones and no pointer provenance), which
     is why memcheck catches fewer RIPE attacks than SafePM or SPP.

   The table is a sorted dynamic array of [start, end) intervals with
   binary search — a reasonable stand-in for Valgrind's VA bits. It
   follows the pool's lifetime reports, as Valgrind follows PMDK's
   allocator annotations, so every allocation path keeps it exact. *)

open Spp_pmdk

exception Violation of { addr : int; len : int }

let () =
  Printexc.register_printer (function
    | Violation { addr; len } ->
      Some (Printf.sprintf
              "memcheck: invalid access of %d bytes at 0x%x" len addr)
    | _ -> None)

type t = {
  mutable starts : int array;   (* sorted *)
  mutable ends : int array;     (* ends.(i) corresponds to starts.(i) *)
  mutable n : int;
}

(* Index of the last interval with start <= addr, or -1. *)
let locate t addr =
  let lo = ref 0 and hi = ref (t.n - 1) and res = ref (-1) in
  while !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    if t.starts.(mid) <= addr then begin
      res := mid;
      lo := mid + 1
    end else hi := mid - 1
  done;
  !res

let grow t =
  let cap = Array.length t.starts in
  if t.n = cap then begin
    let s = Array.make (2 * cap) 0 and e = Array.make (2 * cap) 0 in
    Array.blit t.starts 0 s 0 t.n;
    Array.blit t.ends 0 e 0 t.n;
    t.starts <- s;
    t.ends <- e
  end

let track t ~addr ~len =
  grow t;
  let pos = locate t addr + 1 in
  Array.blit t.starts pos t.starts (pos + 1) (t.n - pos);
  Array.blit t.ends pos t.ends (pos + 1) (t.n - pos);
  t.starts.(pos) <- addr;
  t.ends.(pos) <- addr + len;
  t.n <- t.n + 1

let untrack t ~addr =
  let pos = locate t addr in
  if pos < 0 || t.starts.(pos) <> addr then
    invalid_arg "Memcheck.untrack: unknown allocation";
  Array.blit t.starts (pos + 1) t.starts pos (t.n - pos - 1);
  Array.blit t.ends (pos + 1) t.ends pos (t.n - pos - 1);
  t.n <- t.n - 1

(* Byte-granularity addressability (like Valgrind's VA bits): the access
   is valid iff every byte is covered by the union of live intervals —
   provenance is not tracked, so an overflow landing in another live
   allocation goes unnoticed. *)
let check t addr len =
  if len < 0 then raise (Violation { addr; len });
  let limit = addr + len in
  let point = ref addr in
  while !point < limit do
    let pos = locate t !point in
    if pos < 0 || t.ends.(pos) <= !point then raise (Violation { addr; len });
    point := t.ends.(pos)
  done

(* A live block is tracked at its usable (class-rounded) capacity, as
   PMDK's Valgrind annotations report it: an overflow into the slack is
   missed. *)
let attach pool =
  let t = { starts = Array.make 64 0; ends = Array.make 64 0; n = 0 } in
  Pool.set_lifetime_observer pool
    (Some
       (fun ev (oid : Oid.t) ->
         let addr = Pool.addr_of_off pool oid.Oid.off in
         match ev with
         | Pool.Live -> track t ~addr ~len:(Pool.usable_size pool oid)
         | Pool.Dead -> untrack t ~addr));
  t
