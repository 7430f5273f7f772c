package obs

import (
	"bytes"
	"io"
	"net/http"
	"time"
)

// Delivery policy of PostJSON, shared by the span exporter and the alert
// webhook.
const (
	postRetries = 3
	postBackoff = 250 * time.Millisecond
)

var postClient = &http.Client{Timeout: 5 * time.Second}

// PostJSON POSTs a JSON body to url and reports whether it was accepted.
// Failed attempts are retried up to postRetries times, the i-th retry
// after i·postBackoff. A 2xx reply succeeds; a 4xx fails at once, since
// resending an unacceptable payload cannot help; transport errors and
// other statuses retry. Each reply body is drained (up to 4 KiB) before
// it is closed, so the keep-alive connection is reused. retried, which
// may be nil, counts the retries.
func PostJSON(url string, body []byte, retried *Counter) bool {
	for i := 0; i <= postRetries; i++ {
		if i > 0 {
			retried.Inc()
			time.Sleep(time.Duration(i) * postBackoff)
		}
		resp, err := postClient.Post(url, "application/json", bytes.NewReader(body))
		if err != nil {
			continue
		}
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		resp.Body.Close()
		if resp.StatusCode >= 200 && resp.StatusCode < 300 {
			return true
		}
		if resp.StatusCode >= 400 && resp.StatusCode < 500 {
			return false
		}
	}
	return false
}
