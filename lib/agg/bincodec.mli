(** Binary encoders for aggregate state ({!Combine} views, {!Swag}
    exports).  {!state_codec} and {!swag_codec} are the one encoding of
    these state families: the out-of-core state store serializes
    evicted entries with them, so a spilled state faults back in
    bit-identical (floats as IEEE bit patterns), and engine images
    write the same stores through them ({!Fw_spill.Store.write}).

    Raises {!Fw_spill.Bin.Corrupt} on malformed input. *)

val w_state : Buffer.t -> Combine.state -> unit
val r_state : Fw_spill.Bin.reader -> Combine.state

val w_slot : Buffer.t -> Combine.Cols.t -> int -> unit
(** [w_slot b c i] writes the bytes of [w_state b (Combine.Cols.get c i)]
    without building the state. *)

val w_xentry : Buffer.t -> Swag.xentry -> unit
val r_xentry : Fw_spill.Bin.reader -> Swag.xentry

val w_swag : Buffer.t -> Swag.export -> unit
val r_swag : Fw_spill.Bin.reader -> Swag.export

(** {2 Spill-store codecs}

    State-kind tag bytes — one per spillable state family; fault-in
    rejects a record whose tag disagrees with the store's codec.  Tags
    2–4 are claimed by the engine's private codecs (window pending
    rings, count-window trackers, open sessions). *)

val kind_combine : int
val kind_swag : int
val kind_win : int
val kind_cwin : int
val kind_session : int

val state_weight : Combine.state -> int
val slot_weight : Combine.Cols.t -> int -> int
(** [state_weight (Combine.Cols.get c i)] without building the state. *)

val swag_weight : Swag.t -> int

val state_codec : Combine.state Fw_spill.Store.codec
val slot_codec : Aggregate.t -> Combine.Cols.t Fw_spill.Store.codec
(** The codec of one-slot accumulator columns ({!Fw_agg.Pane}'s per-key
    values): the kind, bytes and weight {!state_codec} gives the state
    in slot 0.  Decoding raises {!Fw_spill.Bin.Corrupt} on a state of
    another aggregate. *)

val swag_codec : Aggregate.t -> Swag.t Fw_spill.Store.codec
