(** Socket front end over the serving pipeline.

    Listens on a TCP or Unix-domain socket and multiplexes pipelined
    {!Wire} requests into {!Spp_shard.Serve}'s per-shard mailboxes. One
    I/O domain runs a [Unix.select] loop over every connection, so the
    server adds one domain however many clients connect.

    Requests are submitted as soon as their frames are decoded, and
    replies are matched by correlation id, not order: a cache-hit [Get]
    is answered at once, overtaking queued work. A [Scan] runs as a
    whole-store [Serve.scan] on a helper thread, and its connection's
    later requests wait for it, so a write pipelined after a scan is not
    in its result. A peer that leaves 256 KiB of replies unread is not
    read until it catches up.

    A malformed frame closes that connection only, after the replies
    already owed are written; a request that cannot be submitted (e.g.
    the pipeline is stopping) is answered [Failed (Op_raised _)]. A
    connection on a descriptor [select] cannot watch (at or above
    FD_SETSIZE) is closed at once, and running out of descriptors pauses
    accepting instead of ending it. The I/O domain blocks [SIGPIPE] on
    its own thread, so a vanished peer fails a write there, and the
    process's handling of the signal is left as it was. *)

type t

type stats = {
  sv_accepted : int;    (** connections accepted *)
  sv_requests : int;    (** frames decoded and dispatched *)
  sv_replies : int;     (** reply frames written *)
  sv_malformed : int;   (** connections dropped on a corrupt frame *)
}

val parse_addr : string -> Unix.sockaddr
(** ["unix:PATH"], ["PORT"] (loopback TCP) or ["HOST:PORT"]. Raises
    [Invalid_argument] on anything else. *)

val pp_addr : Format.formatter -> Unix.sockaddr -> unit

val create : Spp_shard.Serve.t -> Unix.sockaddr -> t
(** Bind, listen (backlog 64) and start the I/O domain. A Unix-domain
    path is unlinked first if stale; TCP sockets set [SO_REUSEADDR] and
    accept port 0 (see {!addr} for the bound port).
    Raises [Failure] if the listener or the self-pipe gets a descriptor
    [select] cannot watch. *)

val addr : t -> Unix.sockaddr
(** The actually-bound address — the kernel-chosen port for TCP port 0. *)

val stats : t -> stats
(** Live monotone snapshot. *)

val stop : t -> unit
(** Stop accepting and reading, write each connection the replies owed
    for every request already read, close every socket, join the I/O
    domain and unlink a Unix-domain path. Idempotent. Safe before or
    after [Serve.stop], whose drain resolves every ticket; stopping the
    server first lets clients see every in-flight reply. *)
