(* Hardware-fault model of the simulated machine. *)

type kind =
  | Segfault
  | Bus_error

exception Fault of kind * int

let kind_to_string = function
  | Segfault -> "SIGSEGV"
  | Bus_error -> "SIGBUS"

let segfault addr = raise (Fault (Segfault, addr))
let bus_error addr = raise (Fault (Bus_error, addr))

let () =
  Printexc.register_printer (function
    | Fault (k, addr) ->
      Some (Printf.sprintf "Sim fault: %s at address 0x%x" (kind_to_string k) addr)
    | _ -> None)
