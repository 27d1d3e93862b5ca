(** The seven Phoenix 2.0 applications, ported to PM objects (paper
    §VI-B, Fig. 6). Every data access goes through the access layer, so
    each variant pays its own instrumentation cost. Results are
    checksums, identical across variants for the same scale. *)

val string_match : ?buggy:bool -> Spp_access.t -> scale:int -> int
(** With [~buggy:true], the word scan reads one byte past the input
    buffer when the last word abuts the end — the off-by-one the paper
    found and reported upstream (§VI-D, kozyraki/phoenix#9). *)

type app = {
  app_name : string;
  default_scale : int;
  run : Spp_access.t -> scale:int -> int;
}

val apps : app list
(** All seven, with the paper's order and sane default scales. *)
