//! Cross-crate property tests: invariants that must hold for arbitrary
//! inputs, spanning the core metrics, the mail codec, and the SMTP
//! session machines.

use proptest::prelude::*;

/// Arbitrary lower-case domain labels of plausible length.
fn label() -> impl Strategy<Value = String> {
    "[a-z0-9]{1,20}".prop_filter("no hyphen edges", |s| !s.is_empty())
}

proptest! {
    /// DL distance is a metric: identity, symmetry, triangle inequality.
    #[test]
    fn dl_is_a_metric(a in label(), b in label(), c in label()) {
        use ets_core::distance::damerau_levenshtein as dl;
        prop_assert_eq!(dl(&a, &a), 0);
        prop_assert_eq!(dl(&a, &b), dl(&b, &a));
        prop_assert!(dl(&a, &c) <= dl(&a, &b) + dl(&b, &c),
            "triangle violated: {} {} {}", a, b, c);
    }

    /// Every generated DL-1 candidate really is at DL distance one, and
    /// the FF-1 subset agrees with the fat-finger metric.
    #[test]
    fn typogen_agrees_with_metrics(sld in "[a-z]{2,12}") {
        let target: ets_core::DomainName = format!("{sld}.com").parse().unwrap();
        for cand in ets_core::typogen::generate_dl1(&target) {
            prop_assert_eq!(
                ets_core::distance::damerau_levenshtein(target.sld(), cand.domain.sld()),
                1
            );
            prop_assert_eq!(
                cand.fat_finger,
                ets_core::distance::is_ff1(target.sld(), cand.domain.sld())
            );
            // Visual distance must be positive for any real change.
            prop_assert!(cand.visual > 0.0);
        }
    }

    /// The typing model stays within probability bounds for arbitrary
    /// parameterizations in a sane range.
    #[test]
    fn typing_model_bounds(
        per_key in 0.001f64..0.2,
        boost in 1.0f64..10.0,
        base_corr in 0.0f64..0.99,
        steep in 0.1f64..20.0,
        sld in "[a-z]{3,10}",
    ) {
        let model = ets_core::typing::TypingModel {
            per_keystroke_error: per_key,
            kind_weights: [0.1, 0.3, 0.4, 0.2],
            fat_finger_boost: boost,
            base_correction: base_corr,
            visual_steepness: steep,
        };
        let target: ets_core::DomainName = format!("{sld}.com").parse().unwrap();
        for cand in ets_core::typogen::generate_dl1(&target).into_iter().take(40) {
            let pt = model.mistype_probability(&cand);
            let pc = model.correction_probability(&cand);
            prop_assert!((0.0..=1.0).contains(&pt), "Pt {}", pt);
            prop_assert!((0.0..=1.0).contains(&pc), "Pc {}", pc);
            prop_assert!(model.expected_emails(1e6, &cand) >= 0.0);
        }
    }

    /// Messages round-trip through wire format and then through a full
    /// in-memory SMTP delivery.
    #[test]
    fn message_survives_smtp_transport(
        subject in "[a-zA-Z0-9 ]{0,40}",
        body in "[ -~]{0,400}",
        data in proptest::collection::vec(any::<u8>(), 0..256),
    ) {
        let msg = ets_mail::MessageBuilder::new()
            .raw_from("sender@origin.example")
            .raw_to("user@typo-domain.example")
            .subject(&subject)
            .body(&body)
            .attach("f.bin", "application/octet-stream", data.clone())
            .build();
        let email = ets_smtp::client::Email::new(
            Some("sender@origin.example".parse().unwrap()),
            vec!["user@typo-domain.example".parse().unwrap()],
            msg.to_wire(),
        );
        let policy = ets_smtp::session::ServerPolicy::catch_all("mx.example.com", &[]);
        let result = ets_smtp::pipe::deliver(email, "client.example", false, policy).unwrap();
        prop_assert_eq!(&result.client, &ets_smtp::client::ClientOutcome::Accepted);
        let received = ets_mail::Message::parse(&result.received[0].data).unwrap();
        prop_assert_eq!(received.subject(), subject.trim());
        prop_assert_eq!(&received.attachments[0].data, &data);
    }

    /// Arbitrary bytes, fed in arbitrary chunks through the codec and
    /// the server session the way the TCP driver feeds them: nothing
    /// panics, every reply code is a real one, the codec holds no more
    /// than its cap between reads, and the run ends by close (only
    /// QUIT closes a catch-all session), by a framing error, or when the
    /// input runs out.
    #[test]
    fn server_session_total_on_garbage(
        pieces in proptest::collection::vec(any::<u16>(), 0..48),
        noise in proptest::collection::vec(any::<u8>(), 1..64),
        chunks in proptest::collection::vec(1usize..700, 1..12),
    ) {
        use ets_smtp::codec::{Frame, LineCodec, MAX_DATA_LEN, MAX_LINE_LEN};
        let input = garbage_session(&pieces, &noise);
        let policy = ets_smtp::session::ServerPolicy::catch_all("mx.x.com", &[]);
        let mut session = ets_smtp::session::ServerSession::new(policy);
        prop_assert_eq!(session.greeting().code, 220);
        let mut codec = LineCodec::new();
        let (mut fed, mut frames) = (0usize, 0usize);
        let mut sizes = chunks.iter().cycle();
        let end = 'run: loop {
            // Drain complete frames before feeding more bytes.
            loop {
                let action = match codec.next_frame() {
                    Ok(Some(Frame::Line(line))) => session.on_line(line),
                    Ok(Some(Frame::Data(payload))) => session.on_data(payload),
                    Ok(None) => break,
                    Err(_) => break 'run End::FramingError,
                };
                frames += 1;
                prop_assert!(
                    (200..600).contains(&action.reply.code),
                    "reply {:?}",
                    action.reply
                );
                if action.enter_data {
                    codec.enter_data_mode();
                }
                if action.close {
                    break 'run End::Close(action.reply.code);
                }
            }
            let cap = if codec.in_data_mode() { MAX_DATA_LEN } else { MAX_LINE_LEN };
            prop_assert!(codec.pending() <= cap, "{} bytes pending", codec.pending());
            if fed == input.len() {
                break End::InputExhausted;
            }
            let n = (*sizes.next().unwrap()).min(input.len() - fed);
            codec.feed(&input[fed..fed + n]);
            fed += n;
        };
        // Every frame consumes at least its CRLF, so the run was bounded
        // by its input.
        prop_assert!(2 * frames <= fed, "{} frames from {} bytes", frames, fed);
        if let End::Close(code) = end {
            prop_assert_eq!(code, 221);
        }
    }

    /// Scrubbed output never leaks a digit other than '0'.
    #[test]
    fn scrub_zeroes_everything(text in "[ -~]{0,300}") {
        let result = ets_collector::scrub::scrub(&text);
        // Digits may only survive as zeros.
        prop_assert!(
            result.text.chars().filter(char::is_ascii_digit).all(|c| c == '0'),
            "digits survive: {}",
            result.text
        );
    }

    /// ChaCha20 sealing round-trips and never emits plaintext verbatim
    /// for non-trivial inputs.
    #[test]
    fn sealing_round_trips(data in proptest::collection::vec(any::<u8>(), 1..512), id: u64) {
        let key: ets_collector::crypto::Key = [0x5A; 32];
        let sealed = ets_collector::crypto::seal(&key, id, &data);
        prop_assert_eq!(ets_collector::crypto::open(&key, &sealed).unwrap(), data.clone());
        if data.len() >= 16 {
            prop_assert_ne!(sealed.ciphertext, data);
        }
    }

    /// The serving plane's fault plan is total and deterministic: every
    /// (connection, request) slot of an arbitrary seed gets a scenario,
    /// the same one on every call.
    #[test]
    fn fault_plan_total(seed: u64, conns in 0usize..24, reqs in 0usize..24) {
        use ets_loadgen::scenario::{plan, ScenarioMix};
        let mix = ScenarioMix::paper();
        let a = plan(&mix, seed, conns, reqs);
        prop_assert_eq!(a.len(), conns);
        prop_assert_eq!(a.iter().map(Vec::len).sum::<usize>(), conns * reqs);
        prop_assert_eq!(a, plan(&mix, seed, conns, reqs));
    }
}

#[test]
fn scrub_preserves_nonsensitive_text() {
    // Deterministic anchor for the property above: ordinary prose is
    // untouched.
    let text = "hello there, the meeting is on thursday";
    let r = ets_collector::scrub::scrub(text);
    assert_eq!(r.text, text);
    assert!(r.findings.is_empty());
}

/// How a driven session ended.
#[derive(Debug)]
enum End {
    /// The session asked to close, with this reply code.
    Close(u16),
    FramingError,
    InputExhausted,
}

/// Builds hostile session input from `pieces`: most pieces take the next
/// step of a valid transaction (EHLO, MAIL, RCPT, DATA, a body, the
/// terminator), so most runs reach DATA; the rest splice in noise lines,
/// bare CR, LF and `.`, non-UTF-8 bytes, over-long lines and QUIT.
fn garbage_session(pieces: &[u16], noise: &[u8]) -> Vec<u8> {
    const STEPS: [&[u8]; 4] = [
        b"EHLO client.example\r\n",
        b"MAIL FROM:<a@b.example>\r\n",
        b"RCPT TO:<u@x.com>\r\n",
        b"DATA\r\n",
    ];
    let mut out = Vec::new();
    let mut step = 0;
    for &p in pieces {
        let arg = usize::from(p >> 4);
        let slice = &noise[arg % noise.len()..];
        match p % 16 {
            0..=10 => {
                match step {
                    0..=3 => out.extend_from_slice(STEPS[step]),
                    4 => out.extend_from_slice(slice),
                    _ => out.extend_from_slice(b"\r\n.\r\n"),
                }
                step = (step + 1) % 6;
            }
            11 => {
                out.extend_from_slice(slice);
                out.extend_from_slice(b"\r\n");
            }
            12 => out.extend_from_slice(slice),
            13 => out.push([b'\r', b'\n', b'.', 0xFF, 0xC3][arg % 5]),
            14 if arg % 4 == 0 => {
                out.resize(out.len() + ets_smtp::codec::MAX_LINE_LEN + arg % 64, b'x')
            }
            15 if arg % 8 == 0 => out.extend_from_slice(b"QUIT\r\n"),
            _ => out.extend_from_slice(b".\r\n"),
        }
    }
    out
}
