(** The request path of [tensorlib serve]: a server answers one JSON
    request line at a time.

    {ul
    {- [{"id": .., "network": "tiny"}] sweeps a named network
       ({!Tl_dse.Network.find}) through the store;}
    {- [{"id": .., "expr": "C[m,n] += A[m,k] * B[n,k]", "extents":
       "m=64,n=64,k=64"}] sweeps that one statement as the network
       ["adhoc"];}
    {- [{"id": .., "einsum": .., "extents": ..}] compiles the statement
       onto the standing programmable array, runs it, checks it against
       the golden executor and answers with the program document.}}

    A sweep answer carries the report ({!Tl_dse.Network.to_json}) and the
    store's hits and misses for that request.  An einsum statement is
    compiled once: the server keeps what {!Tl_compile.Compile.find_design}
    decided for it in a 64-entry cache named ["serve.compile"], keyed by
    the statement's fingerprint, and a repeat is answered byte for byte
    as a fresh server answers it.  Every failure is an [{"ok": false,
    "error": ..}] answer carrying the request's id, and the server keeps
    serving. *)

type t

val create : ?limit:int -> ?deadline_ms:int -> ?target:Tl_templates.Accel.t ->
  Tl_store.Store.t -> t
(** A server over [store].  [limit] caps the design points evaluated per
    unique shape of a sweep.  [deadline_ms] is each request's own
    wall-clock budget; a request that runs out answers ["deadline"].
    [target] is the standing programmable array
    ({!Tl_compile.Compile.target}); without it an einsum request is
    refused.  With it, the server builds the one simulator every program
    runs on and the compile cache. *)

type answer = {
  ok : bool;
  write : out_channel -> unit;
      (** writes the answer's one line, without the newline; an accepted
          einsum's program text goes to the channel as it was rendered
          once ({!Tl_store.Json.output_with_text}) *)
}

val handle : t -> string -> answer
(** Answer one request line.  Never raises: an unexpected exception is
    the answer [{"id": null, "ok": false, "error": "internal: .."}]. *)

val refuse : string -> answer
(** [{"id": null, "ok": false, "error": msg}]: the answer to a line that
    is not read, such as one past the server's size cap. *)

val compile_cache : t -> int * int
(** Hits and misses of the compile cache so far; [(0, 0)] without a
    target. *)
