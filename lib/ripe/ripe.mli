(** RIPE-style runtime intrusion prevention evaluator, ported to PM
    (paper §VI-D, Table IV).

    Each attack tries to corrupt a dispatch slot (the stand-in for a code
    pointer) in a target PM object, or leak a secret word, by overflowing
    a victim buffer. Attacks execute for real through the variant's
    access layer, so outcomes are emergent from the mechanisms:
    layout-naive exploits hardcode offsets measured on the stock (native
    PMDK) layout — which is how ASan-style redzone shifts catch them —
    while layout-aware (evasion) exploits use the hardened binary's real
    layout. *)

type target_loc =
  | Adjacent   (** target object allocated right after the victim *)
  | Distant    (** two spacer objects in between *)

type technique =
  | Seq_u8            (** contiguous byte-wise overflow walk *)
  | Seq_word
  | Far_naive_u8      (** single jump, native-layout offset *)
  | Far_naive_word
  | Memcpy_naive
  | Strcpy_naive
  | Read_leak_naive   (** out-of-bounds read of the secret *)
  | Far_aware_write   (** layout-aware direct jump *)
  | Far_aware_read
  | Int2ptr_aware     (** pointer laundered through an integer *)
  | External_aware    (** write by uninstrumented external code *)
  | Intra_word        (** intra-object field overflow *)
  | Intra_memcpy
  | Under_seq_word    (** contiguous word-wise underflow walk *)
  | Under_far_word    (** layout-aware jump below the buffer start *)

type attack = { technique : technique; loc : target_loc }

val all_attacks : attack list
val attack_name : attack -> string

type outcome =
  | Successful          (** the dispatch slot holds the attacker value *)
  | Prevented of string (** faulted / checker raised before corruption *)
  | Failed_silent       (** write landed but missed the shifted target *)

val outcome_name : outcome -> string

val run_attack : Spp_access.variant -> attack -> outcome

type row = {
  row_name : string;
  successful : int;
  prevented : int;
  failed : int;
  details : (attack * outcome) list;
}

val run_row : Spp_access.variant -> row
val run_all : unit -> row list
(** The five Table IV rows: volatile heap, PM pool heap, SafePM, SPP,
    memcheck. *)
