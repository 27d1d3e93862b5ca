(* Fault model of the in-process replication channel.

   A channel is lossy in a seeded, reproducible way: every send attempt
   (data commit or heartbeat) asks for a verdict, and the verdict stream
   is a pure function of the seed and the attempt sequence — the same
   property the torture harness relies on for crash points. *)

type t = {
  rng : Random.State.t;
  drop_rate : float;
  mutable attempts : int;
  mutable dropped : int;
}

type stats = {
  nf_attempts : int;
  nf_dropped : int;
}

let create ?(seed = 0) ?(drop_rate = 0.) () =
  if drop_rate < 0. || drop_rate >= 1. then
    invalid_arg "Netfault.create: drop_rate must be in [0, 1)";
  { rng = Random.State.make [| 0x4e46; seed |];
    drop_rate; attempts = 0; dropped = 0 }

let attempt t =
  t.attempts <- t.attempts + 1;
  let delivered =
    t.drop_rate = 0. || Random.State.float t.rng 1. >= t.drop_rate
  in
  if not delivered then t.dropped <- t.dropped + 1;
  delivered

let stats t = { nf_attempts = t.attempts; nf_dropped = t.dropped }
