(** Verilog (2001) emitter.

    Emits a single flat module per circuit: one [wire] declaration and
    [assign] per combinational node, one [always @(posedge clock)] block
    for registers and ram write ports, [reg] arrays with [initial] blocks
    for rams/roms.  Signal names use the user-provided {!Signal.set_name}
    labels when available (sanitised, kept clear of the IEEE 1364-2005
    reserved words, and uniquified), [s<id>] otherwise. *)

val to_string : Circuit.t -> string
