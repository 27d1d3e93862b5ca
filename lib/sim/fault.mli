(** Hardware-fault model of the simulated machine.

    An access through an invalid simulated address raises {!Fault}, the
    analogue of SIGSEGV/SIGBUS on real hardware. SPP's implicit bounds check
    relies on this: an overflown tagged pointer decodes to an unmapped
    address, so the very next load or store faults. *)

type kind =
  | Segfault   (** access to an unmapped simulated address *)
  | Bus_error  (** access that violates device constraints *)

exception Fault of kind * int
(** [Fault (kind, addr)] — the faulting simulated address is [addr]. *)

val kind_to_string : kind -> string

val segfault : int -> 'a
(** [segfault addr] raises [Fault (Segfault, addr)]. *)

val bus_error : int -> 'a
(** [bus_error addr] raises [Fault (Bus_error, addr)]. *)
