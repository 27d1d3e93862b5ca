(* SPP runtime library (paper §IV-D, §V-B).

   These are the hook functions the compiler passes inject. They carry the
   same names as the C runtime (modulo the [__] prefix) and keep global
   call counters so instrumentation overhead and optimization effect
   (pointer tracking skipping PM-bit checks, bound-check preemption
   removing calls) can be measured. *)

type counters = {
  mutable updatetag : int;
  mutable cleantag : int;
  mutable checkbound : int;
  mutable cleantag_external : int;
  mutable memintr_check : int;
  mutable pm_bit_tests : int;    (* runtime pointer-kind checks performed *)
  mutable direct_calls : int;    (* hook calls that skipped the kind check *)
}

(* Counters are domain-local. The sharded serving path runs one domain
   per shard, and a single shared record would both lose increments
   (plain-field races) and ping-pong its cache line between every
   domain on every hook call — a contention tax on exactly the path the
   scaleout benchmark measures. The main domain's record is the
   [counters] value itself, so the original single-domain interface is
   unchanged; a spawned domain accumulates into its own record, read
   with [local_counters] before the domain exits. *)

let fresh_counters () = {
  updatetag = 0; cleantag = 0; checkbound = 0;
  cleantag_external = 0; memintr_check = 0;
  pm_bit_tests = 0; direct_calls = 0;
}

let counters = fresh_counters ()

let counters_key = Domain.DLS.new_key fresh_counters

(* module init runs on the main domain: bind its slot to [counters] *)
let () = Domain.DLS.set counters_key counters

let local_counters () = Domain.DLS.get counters_key

let reset_counters () =
  let c = local_counters () in
  c.updatetag <- 0;
  c.cleantag <- 0;
  c.checkbound <- 0;
  c.cleantag_external <- 0;
  c.memintr_check <- 0;
  c.pm_bit_tests <- 0;
  c.direct_calls <- 0

let spp_updatetag cfg ptr off =
  let c = local_counters () in
  c.updatetag <- c.updatetag + 1;
  c.pm_bit_tests <- c.pm_bit_tests + 1;
  Encoding.update_tag cfg ptr off

let spp_updatetag_direct cfg ptr off =
  let c = local_counters () in
  c.updatetag <- c.updatetag + 1;
  c.direct_calls <- c.direct_calls + 1;
  Encoding.update_tag_direct cfg ptr off

let spp_cleantag cfg ptr =
  let c = local_counters () in
  c.cleantag <- c.cleantag + 1;
  c.pm_bit_tests <- c.pm_bit_tests + 1;
  Encoding.clean_tag cfg ptr

let spp_cleantag_direct cfg ptr =
  let c = local_counters () in
  c.cleantag <- c.cleantag + 1;
  c.direct_calls <- c.direct_calls + 1;
  Encoding.clean_tag_direct cfg ptr

let spp_checkbound cfg ptr deref_size =
  let c = local_counters () in
  c.checkbound <- c.checkbound + 1;
  c.pm_bit_tests <- c.pm_bit_tests + 1;
  Encoding.check_bound cfg ptr deref_size

let spp_checkbound_direct cfg ptr deref_size =
  let c = local_counters () in
  c.checkbound <- c.checkbound + 1;
  c.direct_calls <- c.direct_calls + 1;
  Encoding.check_bound_direct cfg ptr deref_size

let spp_cleantag_external cfg ptr =
  let c = local_counters () in
  c.cleantag_external <- c.cleantag_external + 1;
  c.pm_bit_tests <- c.pm_bit_tests + 1;
  Encoding.clean_tag_external cfg ptr

let spp_memintr_check cfg ptr n =
  (* Account for the furthest byte a memory intrinsic will touch, then
     mask. An overflown result is an unmapped address, so the intrinsic
     itself faults (paper §V-B). A negative length is a [size_t] past
     every object, and so is one above the largest object: adding it to
     the tag would wrap the delta field past the overflow bit. Either
     result is overflown; zero touches nothing. *)
  let c = local_counters () in
  c.memintr_check <- c.memintr_check + 1;
  c.pm_bit_tests <- c.pm_bit_tests + 1;
  if n = 0 then Encoding.clean_tag cfg ptr
  else if n < 0 || n > cfg.Config.max_object_size then
    Encoding.clean_tag cfg
      (if Encoding.is_pm cfg ptr then ptr lor cfg.Config.ovf_bit else ptr)
  else Encoding.clean_tag cfg (Encoding.update_tag cfg ptr (n - 1))

let spp_is_pm_ptr cfg ptr =
  let c = local_counters () in
  c.pm_bit_tests <- c.pm_bit_tests + 1;
  Encoding.is_pm cfg ptr
