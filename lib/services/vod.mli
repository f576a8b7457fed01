(** Video-on-demand: the paper's primary example (the service of [2]).

    A content unit is one movie, represented as a sequence of frames.
    The session context is the playback position and rate; the client can
    seek ("skip to the start of scene 4") and change the rate.  Frames
    follow an MPEG-like GOP pattern: every [gop]-th frame is a key
    (I) frame and is marked critical — the paper's example of a response
    one would rather duplicate than lose. *)

type context = {
  position : int;  (** Next frame to send. *)
  rate : int;  (** Frames per tick; 0 = paused. *)
  length : int;  (** Total frames in the movie. *)
}

type request = Seek of int | Set_rate of int

type response = Frame of { index : int; key : bool }

val gop : int
(** Group-of-pictures length: 12. *)

val frames_per_tick : int

include
  Haf_core.Service_intf.SERVICE
    with type context := context
     and type request := request
     and type response := response
