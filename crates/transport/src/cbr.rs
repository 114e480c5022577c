//! Constant-bit-rate datagram source — the paper's second tenant (100
//! flows at 0.5 Gbps, scheduled with EDF).

use crate::flow::CbrDef;
use qvisor_sim::{transmission_time, Nanos};

/// Sender side of a CBR stream: emits fixed-size datagrams at a fixed
/// inter-packet gap; no acknowledgements, no retransmission.
#[derive(Clone, Debug)]
pub struct CbrSource {
    def: CbrDef,
    gap: Nanos,
    next_emission: Nanos,
    emitted: u64,
}

impl CbrSource {
    /// A source for `def`.
    ///
    /// # Panics
    /// Panics if the rate or packet size is zero, or `stop <= start`.
    pub fn new(def: CbrDef) -> CbrSource {
        assert!(def.rate_bps > 0, "rate must be positive");
        assert!(def.pkt_size > 0, "packet size must be positive");
        assert!(def.stop > def.start, "empty CBR interval");
        // Gap so that pkt_size bytes every gap equals rate_bps.
        let gap = transmission_time(def.pkt_size as u64, def.rate_bps);
        CbrSource {
            def,
            gap,
            next_emission: def.start,
            emitted: 0,
        }
    }

    /// The stream definition.
    pub fn def(&self) -> &CbrDef {
        &self.def
    }

    /// Datagrams emitted so far.
    #[cfg(test)]
    pub fn emitted(&self) -> u64 {
        self.emitted
    }

    /// Emit one datagram if the stream is still live at `now`. Returns the
    /// datagram's (sequence, absolute deadline) and the time of the next
    /// emission, or `None` once the stream has ended.
    ///
    /// The simulator should call this exactly at [`CbrSource::next_at`].
    pub fn emit(&mut self, now: Nanos) -> Option<(u64, Nanos)> {
        if now >= self.def.stop {
            return None;
        }
        debug_assert!(now >= self.next_emission, "emitted early");
        let seq = self.emitted;
        self.emitted += 1;
        self.next_emission = now + self.gap;
        Some((seq, now + self.def.deadline_offset))
    }

    /// When the next datagram should be emitted (`None` after `stop`).
    pub fn next_at(&self) -> Option<Nanos> {
        (self.next_emission < self.def.stop).then_some(self.next_emission)
    }
}

/// Receiver-side accounting for datagram streams: deliveries and deadline
/// hits.
#[derive(Clone, Debug, Default)]
pub struct DatagramSink {
    received: u64,
    deadline_met: u64,
    deadline_missed: u64,
}

impl DatagramSink {
    /// Fresh sink.
    pub fn new() -> DatagramSink {
        DatagramSink::default()
    }

    /// A datagram with `deadline` arrived at `now`.
    pub fn on_datagram(&mut self, deadline: Option<Nanos>, now: Nanos) {
        self.received += 1;
        if let Some(d) = deadline {
            if now <= d {
                self.deadline_met += 1;
            } else {
                self.deadline_missed += 1;
            }
        }
    }

    /// Datagrams delivered.
    #[cfg(test)]
    pub fn received(&self) -> u64 {
        self.received
    }

    /// Fraction of deadline-carrying datagrams that met their deadline
    /// (`None` if none seen).
    pub fn deadline_hit_rate(&self) -> Option<f64> {
        let total = self.deadline_met + self.deadline_missed;
        (total > 0).then(|| self.deadline_met as f64 / total as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qvisor_sim::{FlowId, NodeId, TenantId};

    fn def() -> CbrDef {
        CbrDef {
            id: FlowId(1),
            tenant: TenantId(2),
            src: NodeId(0),
            dst: NodeId(1),
            rate_bps: 500_000_000, // 0.5 Gbps
            pkt_size: 1_500,
            start: Nanos::ZERO,
            stop: Nanos::from_millis(1),
            deadline_offset: Nanos::from_micros(500),
        }
    }

    #[test]
    fn gap_matches_rate() {
        // 1500 B at 0.5 Gbps = 24 us between packets.
        let src = CbrSource::new(def());
        assert_eq!(src.next_at(), Some(Nanos::ZERO));
        let mut s = src;
        let (seq, deadline) = s.emit(Nanos::ZERO).unwrap();
        assert_eq!(seq, 0);
        assert_eq!(deadline, Nanos::from_micros(500));
        assert_eq!(s.next_at(), Some(Nanos::from_micros(24)));
    }

    #[test]
    fn stream_ends_at_stop() {
        let mut s = CbrSource::new(def());
        let mut count = 0;
        while let Some(at) = s.next_at() {
            s.emit(at).unwrap();
            count += 1;
        }
        // 1 ms / 24 us ≈ 41.67 -> 42 emissions (t=0 inclusive).
        assert_eq!(count, 42);
        assert_eq!(s.emitted(), 42);
        assert!(s.emit(Nanos::from_millis(2)).is_none());
    }

    #[test]
    fn sink_deadline_accounting() {
        let mut sink = DatagramSink::new();
        sink.on_datagram(Some(Nanos::from_micros(100)), Nanos::from_micros(50));
        sink.on_datagram(Some(Nanos::from_micros(100)), Nanos::from_micros(150));
        sink.on_datagram(None, Nanos::from_micros(10));
        assert_eq!(sink.received(), 3);
        assert_eq!(sink.deadline_hit_rate(), Some(0.5));
    }

    #[test]
    fn empty_sink_reports_none() {
        let sink = DatagramSink::new();
        assert_eq!(sink.deadline_hit_rate(), None);
    }
}
