(** The contract a concrete service implements to be hosted by the
    framework.

    The paper's service model: static {e content} (outside the framework's
    scope), plus a frequently changing per-session {e context}.  The
    context is advanced by two things only — requests from the client
    ("context updates") and responses sent by the primary — so the whole
    service behaviour is captured by three pure functions:
    [apply_request], [tick] and [initial_context].

    All functions must be pure and deterministic: the framework evaluates
    them at primaries, backups and takeover sites and relies on identical
    results from identical inputs. *)

module type SERVICE = sig
  type context
  (** Per-session state: "which parts of the content the client wants to
      receive in responses, and how those responses should be sent". *)

  type request
  (** A context update from the client. *)

  type response
  (** One unit of content streamed back (e.g. a video frame). *)

  val name : string

  val initial_context : unit_id:string -> context
  (** The context of a freshly started session on a content unit. *)

  val apply_request : context -> request -> context

  val tick : context -> response list * context
  (** Produce the next batch of responses (possibly none) and advance the
      context's response-progress component.  The primary calls this once
      per {!tick_period}, in its server's one service tick, which sends
      each client the batches of all its sessions in one frame; the
      framework also replays it to fast-forward or re-deliver after a
      migration, depending on the takeover policy. *)

  val tick_period : float
  (** Seconds between response batches (e.g. frame period). *)

  val session_finished : context -> bool
  (** The content has been fully delivered; the primary will end the
      session. *)

  val response_id : response -> int
  (** Stable identifier used to detect duplicate and missing responses
      client-side (e.g. the frame number). *)

  val response_critical : response -> bool
  (** Must-not-lose responses (the paper's MPEG I-frames): under the
      [Hybrid] takeover policy these are re-sent from the uncertainty
      window while non-critical ones are skipped. *)

  val gen_request : Haf_sim.Rng.t -> seq:int -> request
  (** Draw a plausible client request; used by the workload driver. *)
end
